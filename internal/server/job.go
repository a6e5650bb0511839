package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/report"
)

// State is a job's lifecycle position.
type State string

// The job states. queued → running → one of the terminal three.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Job is one submitted campaign. All mutable fields are guarded by mu;
// the identity fields (id, scenario, ctx/cancel, hub) are set at
// construction and never change.
type Job struct {
	id       string
	scenario config.Scenario
	ctx      context.Context
	cancel   context.CancelFunc
	hub      *hub

	mu        sync.Mutex
	state     State
	errText   string
	submitted time.Time
	started   time.Time
	finished  time.Time
	summary   *report.CampaignSummary
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Cancel requests cancellation: the job's context is canceled (a
// running campaign stops at the next round boundary) and a job still
// in the queue is marked canceled immediately so its worker skips it.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.finished = time.Now()
	}
	j.mu.Unlock()
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// markRunning flips a queued job to running; it reports false when the
// job was already canceled (the worker then skips it).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish makes the job terminal in st: it first hands the job's log
// line to persist, then publishes the state, so a client that sees the
// job terminal finds its line in the log. If persist fails, the job
// fails and keeps no report. A job canceled in the queue keeps the
// finish time Cancel stamped. err and sum may be nil; persist runs
// under j.mu. It returns the state the job ended in.
func (j *Job) finish(st State, err error, sum *report.CampaignSummary, persist func(*jobRecord) error) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished.IsZero() {
		j.finished = time.Now()
	}
	rec := &jobRecord{
		ID:          j.id,
		Name:        j.scenario.Name,
		State:       st,
		SubmittedAt: j.submitted.Format(time.RFC3339Nano),
		FinishedAt:  j.finished.Format(time.RFC3339Nano),
		Scenario:    j.scenario,
		Report:      sum,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if !j.started.IsZero() {
		rec.StartedAt = j.started.Format(time.RFC3339Nano)
	}
	if perr := persist(rec); perr != nil {
		st, rec.Error, sum = StateFailed, fmt.Sprintf("job log: %v", perr), nil
	}
	j.state, j.errText, j.summary = st, rec.Error, sum
	return st
}

// reportState returns the job's state and the summary its report route
// serves (nil when the job produced none).
func (j *Job) reportState() (State, *report.CampaignSummary) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.summary
}

// View is the job's JSON wire representation.
type View struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Program and Nodes echo the submitted scenario.
	Program string `json:"program,omitempty"`
	Nodes   int    `json:"nodes"`
	// Wall-clock lifecycle timestamps, RFC 3339.
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// ExecTimeMS is the simulated campaign length, present once the
	// job is terminal (from the report summary).
	ExecTimeMS int64 `json:"exec_time_ms,omitempty"`
	// Artifacts maps artifact names to their fetch paths once the job
	// has produced them.
	Artifacts map[string]string `json:"artifacts,omitempty"`
}

// view snapshots the job for the API.
func (j *Job) view() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:          j.id,
		Name:        j.scenario.Name,
		State:       j.state,
		Error:       j.errText,
		Program:     j.scenario.Program,
		Nodes:       j.scenario.Nodes,
		SubmittedAt: j.submitted.Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.Format(time.RFC3339Nano)
	}
	if j.summary != nil {
		v.ExecTimeMS = j.summary.ExecTimeMS
	}
	if j.summary != nil {
		v.Artifacts = map[string]string{
			"trace":  "/v1/jobs/" + j.id + "/trace",
			"report": "/v1/jobs/" + j.id + "/report",
		}
	}
	return v
}
