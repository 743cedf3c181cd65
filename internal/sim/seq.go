package sim

// RunSequential executes the simulation on a world of one rank, which plays
// every game itself: the reference every other rank count is held to.
func RunSequential(cfg Config) (*Result, error) { return RunParallel(cfg, 1) }
