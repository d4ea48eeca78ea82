// The AER reporter has no exemption: ERR_* messages travel to the
// root as keyed messages (Simulation::callAt), so a direct schedule
// onto another queue is flagged here like anywhere else.
#include "pcie/err_reporter.hh"

namespace pciesim
{

void
ErrReporter::deliver(EventQueue *root_queue, Event *ev, Tick when)
{
    root_queue->schedule(ev, when);
}

} // namespace pciesim
