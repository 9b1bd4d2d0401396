package simsvc

import (
	"encoding/json"
	"fmt"
)

// resumeJobs re-admits journal-replayed non-terminal sweeps at startup,
// each under its original ID, in submission (ID) order. The resume
// algorithm leans entirely on content addressing: a re-admitted job
// enqueues all of its cells, and every cell whose result survived in the
// persisted cache (or arrives from a peer) resolves as a cache hit —
// only the genuinely missing cells re-simulate. Resumed jobs bypass
// queue backpressure (they were admitted once already).
//
// A request that no longer resolves (e.g. a workload was unregistered
// between lives) is journaled as failed rather than retried forever, so
// the journal converges instead of replaying a poison job on every
// restart.
func (s *Service) resumeJobs(jobs []journalJob) {
	for _, jb := range jobs {
		var req SweepRequest
		if err := json.Unmarshal(jb.req, &req); err != nil {
			s.journal.terminal(jb.id, JobFailed)
			s.event("resume-failed", fmt.Sprintf("%s: bad journaled request: %v", jb.id, err))
			continue
		}
		j, err := s.submit(req, submitOpts{id: jb.id, resumed: true})
		if err != nil {
			s.journal.terminal(jb.id, JobFailed)
			s.event("resume-failed", fmt.Sprintf("%s: %v", jb.id, err))
			continue
		}
		st := j.Status()
		s.event("resume-started", fmt.Sprintf("%s: %d cells re-admitted", st.ID, st.Total))
	}
}

// registerResumeMetrics declares the resume accounting; called only
// with a job journal, the one source of resumed jobs.
func (s *Service) registerResumeMetrics() {
	s.resumedJobs = s.reg.NewCounter("sdo_resume_jobs_total", "Non-terminal jobs re-admitted from the job journal on startup.")
	s.resumeSkipped = s.reg.NewCounter("sdo_resume_cells_skipped_total", "Resumed-job cells answered by the persisted result cache (work the previous life already did).")
	s.resumeReruns = s.reg.NewCounter("sdo_resume_cells_rerun_total", "Resumed-job cells re-simulated because the persisted cache lacked them.")
	s.reg.NewGaugeFunc("sdo_resume_jobs_active", "Resumed jobs still replaying (healthz reports degraded while > 0).",
		func() float64 { return float64(s.resuming.Load()) })
}
