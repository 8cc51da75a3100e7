package ops

// SetFKProbeHook installs f as the observer of every FK probe prepared
// (nil removes it), for the external tests that drive whole SSB flights.
func SetFKProbeHook(f func(fk string, dense bool)) { fkProbeMade = f }
