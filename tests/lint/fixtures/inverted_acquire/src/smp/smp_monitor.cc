// Fixture: badPath() nests the guards backwards — structuralLock is
// acquired while the shootdownLock guard is still live.
#include "smp/smp_monitor.hh"

void SmpMonitor_goodPath(SmpMonitor &mon, unsigned v)
{
    SharedServicingGuard guard(mon, mon.structuralLock, v);
    ServicingGuard down(mon, mon.shootdownLock, v);
}

void SmpMonitor_badPath(SmpMonitor &mon, unsigned v)
{
    ServicingGuard down(mon, mon.shootdownLock, v);
    SharedServicingGuard guard(mon, mon.structuralLock, v); // planted
}
