package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the warm-restart persistence layer: trained linear models
// (DirectAUC-ES, RankSVM — the only rankers with an on-disk format, see
// core.Persistable) are written to the state dir after every successful
// training run and reloaded on boot, so a restarted server answers
// ranking requests immediately with byte-identical responses (same
// scores, same ETags) instead of retraining from scratch.
//
// Layout: one <model-name>.model.json per model, written atomically
// (temp file + rename in the same directory). A single-shard server
// keeps its files directly in the state dir — the layout the
// single-region server always used — while a multi-shard server gives
// each region its own subdirectory (named by the sanitized region), so
// two shards training the same model never race on one path. Files that
// fail to load — truncated writes, hand edits, a network/feature-schema
// change since they were saved — are quarantined by renaming to
// *.corrupt and the boot continues; state is an optimization, never a
// correctness dependency, so no state-dir problem is ever fatal.

const (
	stateSuffix      = ".model.json"
	quarantineSuffix = ".corrupt"
)

// statePath returns the on-disk path for one model's saved weights in
// one shard.
func (sh *shard) statePath(name string) string {
	return filepath.Join(sh.stateDir, name+stateSuffix)
}

// SetStateDir enables warm-restart persistence rooted at dir (created if
// absent) and immediately restores any previously saved models into the
// per-shard serving snapshot maps. Call before serving traffic. Restore
// problems quarantine the offending file and keep going; only an
// unusable directory is reported as an error.
func (s *Server) SetStateDir(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	s.stateDir = dir
	for _, sh := range s.shards {
		sub := dir
		if len(s.shards) > 1 {
			sub = filepath.Join(dir, obs.SanitizeMetricName(sh.region))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return fmt.Errorf("serve: state dir for region %q: %w", sh.region, err)
			}
		}
		sh.stateDir = sub
		s.restoreState(sh)
	}
	return nil
}

// saveModel persists a freshly trained model when a state dir is
// configured and the model has an on-disk format. Persistence failures
// are metered and logged but never surfaced to the request that trained
// the model — the snapshot is already published and serving.
func (s *Server) saveModel(sh *shard, name string, m pipefail.Model) {
	if sh.stateDir == "" || !core.Persistable(m) {
		return
	}
	if err := s.writeModelFile(sh, name, m); err != nil {
		s.metrics.stateSaveErrs.Inc()
		s.log.Printf("serve: persist %s: %v", name, err)
		return
	}
	s.metrics.stateSaved.Inc()
	s.log.Printf("serve: persisted %s to %s", name, sh.statePath(name))
}

// syncDirFn fsyncs a directory; a seam so tests can assert the
// directory sync actually happens on the persistence path.
var syncDirFn = syncStateDir

func syncStateDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeModelFile writes the model atomically and durably: encode into a
// temp file in the shard's state dir, fsync the file, rename over the
// final path, then fsync the directory — the rename itself lives in the
// directory's metadata, so without the final sync a power loss could
// resurface the old file (or none) even though the temp file's bytes
// were safe. A crash at any point leaves either the old complete file
// or the new complete file — never a torn one.
func (s *Server) writeModelFile(sh *shard, name string, m pipefail.Model) error {
	tmp, err := os.CreateTemp(sh.stateDir, name+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := core.SaveLinear(tmp, m, sh.pipe.FeatureNames()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), sh.statePath(name)); err != nil {
		return err
	}
	return syncDirFn(sh.stateDir)
}

// restoreState loads every *.model.json in the shard's state dir into
// its serving snapshot map. Each restored model is re-ranked against the
// shard pipeline's held-out set — scoring is deterministic, so the
// rebuilt snapshot carries the same scores and ETag the original
// training run produced — and published exactly as a fresh training run
// would be.
func (s *Server) restoreState(sh *shard) {
	entries, err := os.ReadDir(sh.stateDir)
	if err != nil {
		s.log.Printf("serve: read state dir: %v", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), stateSuffix) {
			continue
		}
		path := filepath.Join(sh.stateDir, e.Name())
		name := strings.TrimSuffix(e.Name(), stateSuffix)
		if err := s.restoreModelFile(sh, path, name); err != nil {
			s.quarantine(path, err)
		}
	}
}

// restoreModelFile loads one saved model, validates it against the
// shard's network/feature schema, and publishes its snapshot. Any
// mismatch is an error (the caller quarantines): weights trained against
// a different feature layout would score garbage silently.
func (s *Server) restoreModelFile(sh *shard, path, name string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	m, sm, err := core.LoadLinear(f)
	f.Close()
	if err != nil {
		return err
	}
	if sm.Kind != name {
		return fmt.Errorf("file %s holds model kind %q", filepath.Base(path), sm.Kind)
	}
	if !knownModel(name) {
		return fmt.Errorf("unknown model kind %q", name)
	}
	// Rank against the live pipeline (base + any WAL-replayed events) so
	// the restored snapshot carries the ETag a retrain at the current
	// event seq would produce; SetEventLog must run before SetStateDir.
	pipe, _, err := sh.trainPipeline()
	if err != nil {
		return err
	}
	want := pipe.FeatureNames()
	if len(sm.FeatureNames) != len(want) {
		return fmt.Errorf("saved with %d features, pipeline has %d", len(sm.FeatureNames), len(want))
	}
	for i := range want {
		if sm.FeatureNames[i] != want[i] {
			return fmt.Errorf("feature %d is %q, pipeline has %q", i, sm.FeatureNames[i], want[i])
		}
	}
	// The file does not record the event seq its weights trained at, so
	// the snapshot claims none (-1): the rebuild scheduler retrains it on
	// its first pass instead of trusting possibly older weights forever.
	snap, err := s.snapshotModel(sh, pipe, -1, name, m, 0)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	sh.publishLocked(name, snap)
	sh.mu.Unlock()
	s.metrics.stateRestored.Inc()
	s.log.Printf("serve: restored %s from %s (AUC %.4f)", name, path, snap.ranking.AUC())
	return nil
}

// quarantine renames an unusable state file to *.corrupt so the next
// boot does not trip over it again, and the operator can inspect it.
func (s *Server) quarantine(path string, cause error) {
	s.metrics.stateQuarantined.Inc()
	dest := path + quarantineSuffix
	if err := os.Rename(path, dest); err != nil {
		s.log.Printf("serve: quarantine %s (cause: %v): %v", path, cause, err)
		return
	}
	s.log.Printf("serve: quarantined %s -> %s: %v", path, dest, cause)
}
