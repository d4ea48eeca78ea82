/**
 * @file
 * PCI-Express timing parameters: generation rates and encodings,
 * the Table I packet overheads, wire-time computation, and the
 * replay-timer timeout formula from the PCI-Express specification
 * (paper Sec. V-C):
 *
 *   ((MaxPayloadSize + TLPOverhead) / Width * AckFactor
 *     + InternalDelay) * 3 + RxL0sAdjustment     [symbol times]
 *
 * with InternalDelay = RxL0sAdjustment = 0 in the paper's model,
 * and the ACK timer period set to 1/3 of the replay timeout.
 */

#ifndef PCIESIM_PCIE_PCIE_TIMING_HH
#define PCIESIM_PCIE_PCIE_TIMING_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace pciesim
{

/** PCI-Express generation. */
enum class PcieGen : std::uint8_t
{
    Gen1 = 1, //!< 2.5 Gbps/lane, 8b/10b
    Gen2 = 2, //!< 5 Gbps/lane, 8b/10b
    Gen3 = 3, //!< 8 Gbps/lane, 128b/130b
    Gen4 = 4, //!< 16 Gbps/lane, 128b/130b
    Gen5 = 5, //!< 32 Gbps/lane, 128b/130b
};

/** Table I: TLP and DLLP overheads, in bytes (symbols). */
namespace overhead
{

constexpr unsigned tlpHeader = 12;  //!< TLP header
constexpr unsigned tlpSeqNum = 2;   //!< data link layer seq number
constexpr unsigned tlpLcrc = 4;     //!< data link layer CRC
constexpr unsigned framing = 2;     //!< STP/END physical framing
/** Total non-payload symbols of a TLP on the wire. */
constexpr unsigned tlpTotal = tlpHeader + tlpSeqNum + tlpLcrc + framing;
/** DLLP: 6-byte body (type + seq + CRC16) + framing. */
constexpr unsigned dllpBody = 6;
constexpr unsigned dllpTotal = dllpBody + framing;

/**
 * TLPOverhead constant of the spec replay-timer formula; the spec
 * uses 28 symbols (header + seq + LCRC + framing + max prefix
 * allowance).
 */
constexpr unsigned replayFormulaTlpOverhead = 28;

} // namespace overhead

/** Static description of one generation's physical layer. */
struct PcieGenInfo
{
    /** Per-lane line rate in gigatransfers (bits on wire) per s. */
    double lineRateGbps;
    /** Wire bits per payload byte (encoding expansion). */
    double bitsPerByte;
};

/** Look up generation parameters. */
constexpr PcieGenInfo
genInfo(PcieGen gen)
{
    switch (gen) {
      case PcieGen::Gen1:
        return {2.5, 10.0};            // 8b/10b
      case PcieGen::Gen2:
        return {5.0, 10.0};            // 8b/10b
      case PcieGen::Gen4:
        return {16.0, 8.0 * 130 / 128}; // 128b/130b
      case PcieGen::Gen5:
        return {32.0, 8.0 * 130 / 128}; // 128b/130b
      case PcieGen::Gen3:
      default:
        return {8.0, 8.0 * 130 / 128}; // 128b/130b
    }
}

/**
 * Time to move one byte (symbol) across one lane, in ticks (ps).
 * Gen 2: 10 bits at 5 Gbps = 2 ns.
 */
constexpr Tick
symbolTime(PcieGen gen)
{
    PcieGenInfo info = genInfo(gen);
    return static_cast<Tick>(info.bitsPerByte / info.lineRateGbps *
                             1000.0);
}

/**
 * Time to move @p symbols bytes striped across @p width lanes
 * (paper Sec. II-B) at @p symbol_time ticks per symbol. A link end
 * caches symbolTime() of its operating point and calls this per
 * packet.
 */
constexpr Tick
stripedTime(unsigned symbols, unsigned width, Tick symbol_time)
{
    // Round the per-lane symbol count up: a partial stripe still
    // occupies a full symbol time.
    unsigned per_lane = (symbols + width - 1) / width;
    return static_cast<Tick>(per_lane) * symbol_time;
}

/**
 * Serialization time of @p symbols bytes on a link of @p width
 * lanes.
 */
constexpr Tick
serializationTime(PcieGen gen, unsigned width, unsigned symbols)
{
    return stripedTime(symbols, width, symbolTime(gen));
}

/**
 * AckFactor table from the PCI-Express specification, indexed by
 * max payload size and link width. The factor balances ACK traffic
 * against replay-buffer occupancy.
 */
double ackFactor(unsigned max_payload, unsigned width);

/**
 * Replay timer timeout in ticks for the given link configuration
 * (spec formula; InternalDelay and RxL0sAdjustment are zero,
 * paper Sec. V-C).
 *
 * @param max_payload MaxPayloadSize in bytes (the paper uses the
 *                    cache-line size, 64 B).
 */
Tick replayTimeout(PcieGen gen, unsigned width, unsigned max_payload);

/** ACK timer period: 1/3 of the replay timeout (paper Sec. V-C). */
Tick ackTimerPeriod(PcieGen gen, unsigned width, unsigned max_payload);

} // namespace pciesim

#endif // PCIESIM_PCIE_PCIE_TIMING_HH
