// Package store is the job service's persistent artifact store: one
// directory tree holding everything the server must not lose across a
// restart — per-job state (spec, status, progress, campaign state
// directories) and content-addressed repro bundles. All writes are
// atomic (write-temp-then-rename), so a crash at any point leaves every
// file either old or new, never torn; this is what lets the server
// treat the store as the single source of truth on boot and resume
// interrupted jobs from it.
//
// Layout under the root:
//
//	jobs/job-000001/spec.json      the submitted jobspec.Spec
//	jobs/job-000001/status.json    the server's job status record
//	jobs/job-000001/progress.json  cumulative check-job result + frontier
//	jobs/job-000001/state/         campaign state dir (soak jobs)
//	artifacts/<sha256>.json        content-addressed repro bundles
//
// Job IDs are dense ("job-%06d"): CreateJob scans the existing IDs and
// allocates max+1, so IDs stay stable and sortable across restarts.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"repro/internal/artifact"
)

// Store is a handle on one store root. The mutex serializes ID
// allocation; everything else is naturally safe because writes are
// atomic renames of content-complete files.
type Store struct {
	root string
	mu   sync.Mutex
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "jobs"), filepath.Join(dir, "artifacts")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// writeAtomic writes data to path via a temporary file in the same
// directory plus a rename, so readers (and post-crash recovery) never
// observe a partial file.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename %s: %w", path, err)
	}
	return nil
}

// jobIDRe is the only job-ID shape the store accepts; it doubles as
// path-traversal protection for IDs arriving from URLs.
var jobIDRe = regexp.MustCompile(`^job-[0-9]{6}$`)

// ValidJobID reports whether id has the store's job-ID shape.
func ValidJobID(id string) bool { return jobIDRe.MatchString(id) }

// jobDir resolves a job directory, rejecting malformed IDs.
func (s *Store) jobDir(id string) (string, error) {
	if !ValidJobID(id) {
		return "", fmt.Errorf("store: malformed job id %q", id)
	}
	return filepath.Join(s.root, "jobs", id), nil
}

// CreateJob allocates the next job ID and creates its directory.
func (s *Store) CreateJob() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.JobIDs()
	if err != nil {
		return "", err
	}
	next := 1
	if len(ids) > 0 {
		last := ids[len(ids)-1]
		n, err := strconv.Atoi(last[len("job-"):])
		if err != nil {
			return "", fmt.Errorf("store: corrupt job id %q", last)
		}
		next = n + 1
	}
	id := fmt.Sprintf("job-%06d", next)
	dir, err := s.jobDir(id)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return id, nil
}

// JobIDs lists the store's job IDs in ascending order.
func (s *Store) JobIDs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && ValidJobID(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// WriteJobFile atomically writes one file inside a job's directory.
// name must be a bare file name (no separators).
func (s *Store) WriteJobFile(id, name string, data []byte) error {
	dir, err := s.jobDir(id)
	if err != nil {
		return err
	}
	if name == "" || name != filepath.Base(name) {
		return fmt.Errorf("store: bad job file name %q", name)
	}
	return writeAtomic(filepath.Join(dir, name), data)
}

// ReadJobFile reads one file from a job's directory; (nil, nil) when
// the file does not exist.
func (s *Store) ReadJobFile(id, name string) ([]byte, error) {
	dir, err := s.jobDir(id)
	if err != nil {
		return nil, err
	}
	if name == "" || name != filepath.Base(name) {
		return nil, fmt.Errorf("store: bad job file name %q", name)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// StateDir returns a job's campaign state directory (not created until
// the campaign first writes to it).
func (s *Store) StateDir(id string) (string, error) {
	dir, err := s.jobDir(id)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, "state"), nil
}

// artifactKeyRe is the only artifact-key shape the store accepts
// (lowercase sha256 hex), doubling as path-traversal protection.
var artifactKeyRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidArtifactKey reports whether key has the store's key shape.
func ValidArtifactKey(key string) bool { return artifactKeyRe.MatchString(key) }

// PutArtifact stores a repro bundle content-addressed and returns its
// key (the sha256 of its compact JSON encoding). Storing the same
// bundle twice is a no-op returning the same key.
func (s *Store) PutArtifact(b *artifact.Bundle) (string, error) {
	data, err := json.Marshal(b)
	if err != nil {
		return "", fmt.Errorf("store: encode bundle: %w", err)
	}
	sum := sha256.Sum256(data)
	key := hex.EncodeToString(sum[:])
	// Bundles historically persist with a trailing newline the key does
	// not cover; keys must stay stable, so the raw path is separate.
	if err := s.putBlob(key, append(data, '\n')); err != nil {
		return "", err
	}
	return key, nil
}

// PutRawArtifact stores an arbitrary JSON document (a lint job's SARIF
// log or bounds report) content-addressed by the sha256 of its exact
// bytes, and returns the key. Idempotent like PutArtifact.
func (s *Store) PutRawArtifact(data []byte) (string, error) {
	sum := sha256.Sum256(data)
	key := hex.EncodeToString(sum[:])
	if err := s.putBlob(key, data); err != nil {
		return "", err
	}
	return key, nil
}

// putBlob writes one content-addressed file, skipping the write when
// the key already exists (content-addressing makes re-writes no-ops).
func (s *Store) putBlob(key string, data []byte) error {
	path := filepath.Join(s.root, "artifacts", key+".json")
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return writeAtomic(path, data)
}

// ImportArtifact loads a bundle file (e.g. from a campaign artifact
// directory) and stores it content-addressed.
func (s *Store) ImportArtifact(path string) (string, error) {
	b, err := artifact.Load(path)
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return s.PutArtifact(b)
}

// Artifact returns a stored bundle's JSON by key; (nil, nil) when the
// key is unknown.
func (s *Store) Artifact(key string) ([]byte, error) {
	if !ValidArtifactKey(key) {
		return nil, fmt.Errorf("store: malformed artifact key %q", key)
	}
	data, err := os.ReadFile(filepath.Join(s.root, "artifacts", key+".json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// ArtifactKeys lists the stored bundle keys in ascending order.
func (s *Store) ArtifactKeys() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "artifacts"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	keys := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if len(name) == 64+len(".json") && ValidArtifactKey(name[:64]) {
			keys = append(keys, name[:64])
		}
	}
	sort.Strings(keys)
	return keys, nil
}
