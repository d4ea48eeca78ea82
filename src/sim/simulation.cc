#include "simulation.hh"

#include <utility>

#include "event.hh"
#include "logging.hh"
#include "parallel.hh"
#include "sim_object.hh"

namespace pciesim
{

Simulation::Simulation() : eventq_(0, &bootTies_) {}

Simulation::~Simulation() = default;

void
Simulation::registerObject(SimObject *obj)
{
    panicIf(initialized_,
            "object '", obj->name(), "' created after initialize()");
    objects_.push_back(obj);
}

unsigned
Simulation::addDomain(const std::string &label)
{
    panicIf(initialized_, "domain added after initialize()");
    if (extraQueues_.empty())
        domainLabels_.assign(1, "host");
    const unsigned id = numDomains();
    extraQueues_.push_back(std::make_unique<EventQueue>(id, &bootTies_));
    domainLabels_.push_back(
        label.empty() ? "domain" + std::to_string(id) : label);
    return id;
}

const std::string &
Simulation::domainLabel(unsigned d) const
{
    static const std::string fallback;
    return d < domainLabels_.size() ? domainLabels_[d] : fallback;
}

EventQueue &
Simulation::domainQueue(unsigned d)
{
    panicIf(d >= numDomains(), "no such domain ", d);
    return d == 0 ? eventq_ : *extraQueues_[d - 1];
}

void
Simulation::setupParallel(unsigned threads, Tick quantum)
{
    panicIf(engine_ != nullptr, "parallel engine already attached");
    panicIf(numDomains() < 2,
            "setupParallel() needs a partitioned topology");
    std::vector<EventQueue *> queues;
    queues.reserve(numDomains());
    for (unsigned d = 0; d < numDomains(); ++d)
        queues.push_back(&domainQueue(d));
    engine_ = std::make_unique<ParallelEngine>(std::move(queues),
                                               quantum, threads);
    // The telemetry block (DESIGN.md §14) registers here rather
    // than in the engine constructor so direct engine construction
    // (unit tests) stays registry-free; every partitioned topology
    // comes through this path.
    engine_->registerStats(stats_, domainLabels_);
}

void
Simulation::callAt(unsigned d, Tick when, std::function<void()> fn)
{
    EventQueue &q = domainQueue(d);
    if (par::engineActive && par::currentQueue() != &q) {
        engine_->postCall(q, when, std::move(fn));
        return;
    }
    q.schedule(new OneShotEvent(std::move(fn)), when);
}

std::uint64_t
Simulation::eventsProcessed() const
{
    std::uint64_t total = eventq_.numProcessed();
    for (const auto &q : extraQueues_)
        total += q->numProcessed();
    return total;
}

void
Simulation::initialize()
{
    if (initialized_)
        return;
    initialized_ = true;
    for (SimObject *obj : objects_)
        obj->init();
    for (SimObject *obj : objects_)
        obj->startup();
}

Tick
Simulation::run(Tick max_tick)
{
    initialize();
    if (engine_)
        return engine_->run(max_tick);
    return eventq_.run(max_tick);
}

Tick
Simulation::runFor(Tick duration)
{
    initialize();
    return run(curTick() + duration);
}

SimObject::SimObject(Simulation &sim, std::string name)
    : sim_(sim), name_(std::move(name))
{
    sim.registerObject(this);
    homeQueue_ = &sim.domainQueue(sim.buildDomain());
}

Tick
SimObject::curTick() const
{
    return homeQueue_->curTick();
}

EventQueue &
SimObject::eventq()
{
    return *homeQueue_;
}

stats::Registry &
SimObject::statsRegistry()
{
    return sim_.statsRegistry();
}

void
SimObject::schedule(Event &event, Tick delay)
{
    homeQueue_->schedule(&event, homeQueue_->curTick() + delay);
}

void
SimObject::scheduleAbs(Event &event, Tick when)
{
    homeQueue_->schedule(&event, when);
}

} // namespace pciesim
