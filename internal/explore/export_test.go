package explore

// NewTestManager builds a Manager from opts through newManager, for the
// external tests that drive the job lifecycle without an HTTP server.
func NewTestManager(opts ...ManagerOption) *Manager { return newManager(newManagerConfig(opts)) }
