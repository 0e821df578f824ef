// Fixture: a one-lock order for the mini monitor below.
#define HEV_SMP_LOCKS(X) \
    X(Structural, structuralLock)
