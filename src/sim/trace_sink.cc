#include "trace_sink.hh"

#include <cstdio>

#include "json.hh"
#include "logging.hh"

namespace pciesim::trace
{

Sink::~Sink() = default;

TextSink::TextSink(std::ostream &os) : os_(&os) {}

TextSink::TextSink(const std::string &path)
    : owned_(path), os_(&owned_)
{
    fatalIf(!owned_.is_open(), "cannot open trace file '", path,
            "'");
}

void
TextSink::line(Tick tick, const std::string &track,
               const std::string &text)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%12llu",
                  static_cast<unsigned long long>(tick));
    *os_ << buf << ": " << track << ": " << text << "\n";
}

void
TextSink::message(Tick tick, const std::string &track,
                  const char *cat, const std::string &text)
{
    line(tick, track, std::string(cat) + ": " + text);
}

void
TextSink::begin(Tick tick, const std::string &track,
                const char *cat, const std::string &name)
{
    line(tick, track, std::string(cat) + ": begin " + name);
}

void
TextSink::end(Tick tick, const std::string &track, const char *cat)
{
    line(tick, track, std::string(cat) + ": end");
}

void
TextSink::complete(Tick start, Tick duration,
                   const std::string &track, const char *cat,
                   const std::string &name)
{
    line(start, track,
         std::string(cat) + ": " + name + " (dur=" +
             std::to_string(duration) + ")");
}

void
TextSink::counter(Tick tick, const std::string &track,
                  const char *cat, const std::string &series,
                  double value)
{
    (void)cat;
    line(tick, track, series + " = " + std::to_string(value));
}

void
TextSink::flush()
{
    os_->flush();
}

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : os_(path)
{
    fatalIf(!os_.is_open(), "cannot open trace file '", path, "'");
    os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

ChromeTraceSink::~ChromeTraceSink()
{
    close();
}

std::string
ChromeTraceSink::tsField(Tick tick)
{
    // Chrome timestamps are microseconds; ticks are picoseconds.
    // Six decimals keep exact picosecond resolution.
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(tick / 1000000),
                  static_cast<unsigned long long>(tick % 1000000));
    return buf;
}

void
ChromeTraceSink::emit(const std::string &record)
{
    if (closed_)
        return;
    if (eventsWritten_ > 0)
        os_ << ",";
    os_ << "\n" << record;
    ++eventsWritten_;
}

int
ChromeTraceSink::tidFor(const std::string &track)
{
    auto it = tids_.find(track);
    if (it != tids_.end())
        return it->second;
    int tid = nextTid_++;
    tids_.emplace(track, tid);
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
         "\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"name\":\"" + json::escape(track) + "\"}}");
    return tid;
}

void
ChromeTraceSink::message(Tick tick, const std::string &track,
                         const char *cat, const std::string &text)
{
    int tid = tidFor(track);
    emit("{\"name\":\"" + json::escape(text) + "\",\"cat\":\"" +
         std::string(cat) + "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
         tsField(tick) + ",\"pid\":0,\"tid\":" +
         std::to_string(tid) + "}");
}

void
ChromeTraceSink::begin(Tick tick, const std::string &track,
                       const char *cat, const std::string &name)
{
    int tid = tidFor(track);
    emit("{\"name\":\"" + json::escape(name) + "\",\"cat\":\"" +
         std::string(cat) + "\",\"ph\":\"B\",\"ts\":" +
         tsField(tick) + ",\"pid\":0,\"tid\":" +
         std::to_string(tid) + "}");
}

void
ChromeTraceSink::end(Tick tick, const std::string &track,
                     const char *cat)
{
    int tid = tidFor(track);
    emit("{\"cat\":\"" + std::string(cat) +
         "\",\"ph\":\"E\",\"ts\":" + tsField(tick) +
         ",\"pid\":0,\"tid\":" + std::to_string(tid) + "}");
}

void
ChromeTraceSink::complete(Tick start, Tick duration,
                          const std::string &track,
                          const char *cat, const std::string &name)
{
    int tid = tidFor(track);
    emit("{\"name\":\"" + json::escape(name) + "\",\"cat\":\"" +
         std::string(cat) + "\",\"ph\":\"X\",\"ts\":" +
         tsField(start) + ",\"dur\":" + tsField(duration) +
         ",\"pid\":0,\"tid\":" + std::to_string(tid) + "}");
}

void
ChromeTraceSink::counter(Tick tick, const std::string &track,
                         const char *cat, const std::string &series,
                         double value)
{
    int tid = tidFor(track);
    char val[48];
    std::snprintf(val, sizeof(val), "%.9g", value);
    emit("{\"name\":\"" + json::escape(series) + "\",\"cat\":\"" +
         std::string(cat) + "\",\"ph\":\"C\",\"ts\":" +
         tsField(tick) + ",\"pid\":0,\"tid\":" +
         std::to_string(tid) + ",\"args\":{\"value\":" +
         std::string(val) + "}}");
}

void
ChromeTraceSink::flush()
{
    os_.flush();
}

void
ChromeTraceSink::close()
{
    if (closed_)
        return;
    os_ << "\n]}\n";
    os_.flush();
    closed_ = true;
}

} // namespace pciesim::trace
