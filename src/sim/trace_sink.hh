/**
 * @file
 * Output sinks for the tracing subsystem (sim/trace.hh). A sink
 * receives fully-formed trace records (tick, track, category,
 * payload) and renders them; the trace front end decides *whether*
 * a record is emitted, sinks only decide *how* it looks.
 *
 * Two concrete sinks are provided: a gem5-DPRINTF-style text sink
 * and a Chrome trace-event JSON sink whose output loads directly
 * into Perfetto / chrome://tracing.
 */

#ifndef PCIESIM_SIM_TRACE_SINK_HH
#define PCIESIM_SIM_TRACE_SINK_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "ticks.hh"

namespace pciesim::trace
{

/**
 * Abstract trace sink. The @p track argument names the timeline a
 * record belongs to (typically a SimObject name); @p cat is the
 * trace-flag name that produced the record.
 */
class Sink
{
  public:
    virtual ~Sink();

    /** Free-form message (maps to an instant event in Chrome). */
    virtual void message(Tick tick, const std::string &track,
                         const char *cat,
                         const std::string &text) = 0;

    /** Open a duration span on @p track. */
    virtual void begin(Tick tick, const std::string &track,
                      const char *cat, const std::string &name) = 0;

    /** Close the innermost open span on @p track. */
    virtual void end(Tick tick, const std::string &track,
                     const char *cat) = 0;

    /** A span whose duration is already known at emission time. */
    virtual void complete(Tick start, Tick duration,
                          const std::string &track, const char *cat,
                          const std::string &name) = 0;

    /** A named time-series sample (Chrome counter event). */
    virtual void counter(Tick tick, const std::string &track,
                         const char *cat, const std::string &series,
                         double value) = 0;

    virtual void flush() = 0;
};

/**
 * Human-readable text sink: one "tick: track: payload" line per
 * record, mirroring gem5's DPRINTF output format.
 */
class TextSink : public Sink
{
  public:
    /** Write to @p os (not owned); must outlive the sink. */
    explicit TextSink(std::ostream &os);

    /** Write to @p path, owning the stream. */
    explicit TextSink(const std::string &path);

    void message(Tick tick, const std::string &track,
                 const char *cat, const std::string &text) override;
    void begin(Tick tick, const std::string &track, const char *cat,
               const std::string &name) override;
    void end(Tick tick, const std::string &track,
             const char *cat) override;
    void complete(Tick start, Tick duration,
                  const std::string &track, const char *cat,
                  const std::string &name) override;
    void counter(Tick tick, const std::string &track,
                 const char *cat, const std::string &series,
                 double value) override;
    void flush() override;

  private:
    void line(Tick tick, const std::string &track,
              const std::string &text);

    std::ofstream owned_;
    std::ostream *os_;
};

/**
 * Chrome trace-event JSON sink.
 *
 * Emits the object form {"traceEvents": [...]} so the file is a
 * single valid JSON document once close() runs. Each distinct
 * track is mapped to a tid (in deterministic first-use order) and
 * announced with a thread_name metadata event, so Perfetto shows
 * one named row per SimObject. Timestamps are microseconds
 * (fractional), converted from ticks.
 */
class ChromeTraceSink : public Sink
{
  public:
    explicit ChromeTraceSink(const std::string &path);
    ~ChromeTraceSink() override;

    void message(Tick tick, const std::string &track,
                 const char *cat, const std::string &text) override;
    void begin(Tick tick, const std::string &track, const char *cat,
               const std::string &name) override;
    void end(Tick tick, const std::string &track,
             const char *cat) override;
    void complete(Tick start, Tick duration,
                  const std::string &track, const char *cat,
                  const std::string &name) override;
    void counter(Tick tick, const std::string &track,
                 const char *cat, const std::string &series,
                 double value) override;
    void flush() override;

    /** Emit the closing bracket; further records are dropped. */
    void close();

    std::uint64_t eventsWritten() const { return eventsWritten_; }

  private:
    int tidFor(const std::string &track);
    void emit(const std::string &record);
    static std::string tsField(Tick tick);

    std::ofstream os_;
    std::map<std::string, int> tids_;
    int nextTid_ = 1;
    std::uint64_t eventsWritten_ = 0;
    bool closed_ = false;
};

} // namespace pciesim::trace

#endif // PCIESIM_SIM_TRACE_SINK_HH
