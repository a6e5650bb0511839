package server

import (
	"fmt"
	"os"
	"path/filepath"
)

// Store lays out per-job artifacts on disk:
//
//	<root>/<job-id>/scenario.json   the submitted spec, verbatim
//	<root>/<job-id>/trace.tct       the campaign trace (tracefile)
//	<root>/<job-id>/report.json     the terminal campaign summary
//
// Artifacts outlive the in-memory job table only as files — the server
// does not rebuild job state from disk on restart (campaigns are cheap
// to resubmit; traces are the durable output).
type Store struct {
	root string
}

// NewStore creates (if needed) and wraps the artifact root directory.
func NewStore(root string) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("server: artifact store needs a root directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: artifact root: %w", err)
	}
	return &Store{root: root}, nil
}

// JobDir creates and returns the job's artifact directory.
func (s *Store) JobDir(id string) (string, error) {
	dir := filepath.Join(s.root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("server: job dir: %w", err)
	}
	return dir, nil
}

// ScenarioPath returns the job's stored scenario spec path.
func (s *Store) ScenarioPath(id string) string {
	return filepath.Join(s.root, id, "scenario.json")
}

// TracePath returns the job's trace artifact path.
func (s *Store) TracePath(id string) string {
	return filepath.Join(s.root, id, "trace.tct")
}

// ReportPath returns the job's report artifact path.
func (s *Store) ReportPath(id string) string {
	return filepath.Join(s.root, id, "report.json")
}
