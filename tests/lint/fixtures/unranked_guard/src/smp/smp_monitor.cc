// Fixture: statsLock is not in HEV_SMP_LOCKS, so the guard over it has
// no rank and the scan cannot place it in the order.
#include "smp/smp_monitor.hh"

void SmpMonitor_path(SmpMonitor &mon, unsigned v)
{
    SharedServicingGuard guard(mon, mon.structuralLock, v);
    WitnessedGuard stats(mon.statsLock); // planted
}
