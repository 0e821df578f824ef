// Fixture: a two-lock order for the mini monitor below.
#define HEV_SMP_LOCKS(X) \
    X(Structural, structuralLock) \
    X(Shootdown, shootdownLock)
