package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"thermctl/internal/config"
	"thermctl/internal/report"
)

// Store lays out the server's artifacts under one root directory:
//
//	<root>/<job-id>.tct   each job's campaign trace (tracefile)
//	<root>/jobs.jsonl     one JSON line per terminal job (jobRecord):
//	                      state, timestamps, the normalized scenario
//	                      and the campaign summary
//
// A job creates one file, its trace: a new inode costs far more than
// an append to an open file. The rest reaches disk as the job's log
// line when it ends. The server does not rebuild job state from disk on
// restart (campaigns are cheap to resubmit; traces and the log are the
// durable output).
type Store struct {
	root string

	// mu serializes appends to log; each record is one Write.
	mu  sync.Mutex
	log *os.File // opened by the first append, closed by Close
}

// jobLogName is the job log's file name under the store root.
const jobLogName = "jobs.jsonl"

// jobRecord is one line of the job log. Report is the summary the
// report route serves, or null when the job produced none.
type jobRecord struct {
	ID          string                  `json:"id"`
	Name        string                  `json:"name,omitempty"`
	State       State                   `json:"state"`
	Error       string                  `json:"error,omitempty"`
	SubmittedAt string                  `json:"submitted_at"`
	StartedAt   string                  `json:"started_at,omitempty"`
	FinishedAt  string                  `json:"finished_at"`
	Scenario    config.Scenario         `json:"scenario"`
	Report      *report.CampaignSummary `json:"report"`
}

// NewStore creates (if needed) and wraps the artifact root directory.
// It creates no file: the job log opens on the first append.
func NewStore(root string) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("server: artifact store needs a root directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: artifact root: %w", err)
	}
	return &Store{root: root}, nil
}

// TracePath returns the job's trace artifact path.
func (s *Store) TracePath(id string) string {
	return filepath.Join(s.root, id+".tct")
}

// logJob writes rec as one line at the end of the job log, opening the
// log (never truncating it) on first use.
func (s *Store) logJob(rec *jobRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		f, err := os.OpenFile(filepath.Join(s.root, jobLogName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		s.log = f
	}
	_, err = s.log.Write(line)
	return err
}

// Close closes the job log if an append opened it. A later append
// reopens it.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
