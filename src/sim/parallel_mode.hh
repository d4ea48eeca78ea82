/**
 * @file
 * Minimal hot-path hooks for parallel execution (DESIGN.md §10).
 *
 * This header exists so performance-critical headers (packet.hh,
 * simulation.hh) can test whether the parallel engine is running
 * without pulling in the engine itself. Two flags, for two
 * different questions:
 *
 *  - par::engineActive: must cross-domain effects go through the
 *    engine? True for the whole of ParallelEngine::run(). It keys
 *    the choice between a mailbox post and a direct schedule,
 *    domain packet ids and Simulation::curTick() routing, so it is
 *    a pure function of the configuration and never of the wall
 *    clock or the window kind.
 *  - par::concurrent: can another thread touch shared state right
 *    now? True only while a fanned-out window runs. It keys the
 *    *synchronization* alone — the packet pool mutex, atomic
 *    refcounts and the live-packet count, a cut wire's in-flight
 *    lock — so it may change only wall time, never a simulated
 *    result.
 *
 * The write discipline: engineActive is written on the main thread
 * strictly before workers are spawned and strictly after they are
 * joined. concurrent is written at those two points and, in
 * between, only by the barrier holder while every other worker is
 * parked at the window barrier: the holder's acquiring arrival
 * orders it after every worker's last read, and its releasing
 * generation bump orders it before every worker's next read. So
 * both are plain bools and race-free. With no engine (every
 * single-queue run) both stay false and each guarded path costs one
 * predictable branch — the same budget as the tracing and profiler
 * gates.
 */

#ifndef PCIESIM_SIM_PARALLEL_MODE_HH
#define PCIESIM_SIM_PARALLEL_MODE_HH

#include <cstdint>

namespace pciesim
{
class EventQueue;
} // namespace pciesim

namespace pciesim::par
{

/** True only while ParallelEngine::run() is executing windows. */
extern bool engineActive;

/** True only while a fanned-out window runs, i.e. while more than
 *  one thread may execute events at once; never at one worker. */
extern bool concurrent;

/** The event queue of the domain this thread is executing, or null
 *  outside a worker's window (set by the engine; thread local). */
EventQueue *currentQueue();

/**
 * Deterministic packet id in parallel mode: the domain id in the
 * top bits over a per-domain serial. Ids depend on which domain
 * allocates, never on thread interleaving, so any thread count
 * produces the same ids (they differ from the single-queue global
 * numbering; ids appear only in toString() and trace labels).
 */
std::uint64_t domainPacketId();

/**
 * Audit builds: call on every unlocked pool or refcount operation.
 * While the engine runs a narrow window (engineActive &&
 * !concurrent) it panics unless this is the barrier holder's
 * thread, which the engine records each time it clears concurrent.
 * @p what names the operation. Compiles to nothing otherwise.
 */
#ifdef PCIESIM_ENABLE_AUDIT
void auditExclusive(const char *what);
#else
inline void auditExclusive(const char *) {}
#endif

} // namespace pciesim::par

#endif // PCIESIM_SIM_PARALLEL_MODE_HH
