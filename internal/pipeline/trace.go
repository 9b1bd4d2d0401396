package pipeline

import "repro/internal/obs"

// SetObserver attaches an event recorder to the core. Components emit
// typed events (rename, issue, squash, commit, branch resolution, the
// Obl-Ld state machine, SDO FP operations) to the recorder's sinks,
// filtered by its class mask. Pass nil to detach. With no recorder
// attached every emission site reduces to a nil check (obs.Recorder.On
// has a nil receiver fast path), so an untraced simulation pays nothing.
//
// The memory system has its own observer (mem.Hierarchy.SetObserver);
// core.Machine wires both to the same recorder.
func (c *Core) SetObserver(r *obs.Recorder) { c.obs = r }

// Observer returns the attached recorder (nil when tracing is off).
func (c *Core) Observer() *obs.Recorder { return c.obs }
