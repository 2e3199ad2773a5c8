package serve

// Tests for warm-restart persistence: save-on-train, byte-identical
// restore (same ranking ETag, no retraining), quarantine of corrupt or
// mismatched state files, and the non-persistable model whitelist.

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// stateTestServer builds a server over a fixed small network with a
// state dir attached. Every call with the same dir sees the same
// network, like a process restart would.
func stateTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	net, err := pipefail.GenerateRegion("A", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, log.New(io.Discard, "", 0), pipefail.WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func fetchRankingETag(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ranking status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("ranking response has no ETag")
	}
	return etag
}

// TestWarmRestartServesIdenticalRankings is the acceptance test for the
// persistence layer: train on one server, boot a second one over the
// same state dir, and the second serves the same ranking (same ETag)
// without ever calling its trainer.
func TestWarmRestartServesIdenticalRankings(t *testing.T) {
	dir := t.TempDir()
	before := counterVal("serve.state.restored")

	_, ts1 := stateTestServer(t, dir)
	if code := postJSON(t, ts1.URL+"/api/models/DirectAUC-ES/train", nil, nil); code != 200 {
		t.Fatal("train failed")
	}
	etag1 := fetchRankingETag(t, ts1.URL+"/api/models/DirectAUC-ES/ranking?top=25")
	if _, err := os.Stat(filepath.Join(dir, "DirectAUC-ES.model.json")); err != nil {
		t.Fatalf("state file not written: %v", err)
	}

	// "Restart": a fresh server over the same dir. Its trainer is booby-
	// trapped — serving the ranking must not need it.
	s2, ts2 := stateTestServer(t, dir)
	s2.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		t.Error("warm restart retrained instead of restoring")
		return s2.train(ctx, sh, name)
	}
	if got := counterVal("serve.state.restored"); got < before+1 {
		t.Fatalf("serve.state.restored = %d, want >= %d", got, before+1)
	}
	var models []map[string]any
	if code := getJSON(t, ts2.URL+"/api/models", &models); code != 200 {
		t.Fatal("models list failed")
	}
	restored := false
	for _, m := range models {
		if m["name"] == "DirectAUC-ES" && m["trained"].(bool) {
			restored = true
		}
	}
	if !restored {
		t.Fatal("restored model not listed as trained")
	}
	if etag2 := fetchRankingETag(t, ts2.URL+"/api/models/DirectAUC-ES/ranking?top=25"); etag2 != etag1 {
		t.Fatalf("warm-restart ETag %q differs from original %q", etag2, etag1)
	}
}

// TestCorruptStateQuarantined drops garbage and a kind-mismatched file
// into the state dir: boot must not fail, both files must move aside to
// *.corrupt, and training must still work from scratch.
func TestCorruptStateQuarantined(t *testing.T) {
	dir := t.TempDir()
	before := counterVal("serve.state.quarantined")
	if err := os.WriteFile(filepath.Join(dir, "RankSVM.model.json"), []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Valid JSON, wrong kind for its filename: stale or hand-renamed.
	mismatch := `{"format":1,"kind":"RankSVM","feature_names":["a"],"weights":[1]}`
	if err := os.WriteFile(filepath.Join(dir, "DirectAUC-ES.model.json"), []byte(mismatch), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := stateTestServer(t, dir)
	if got := counterVal("serve.state.quarantined"); got != before+2 {
		t.Fatalf("serve.state.quarantined = %d, want %d", got, before+2)
	}
	for _, f := range []string{"RankSVM.model.json", "DirectAUC-ES.model.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("corrupt %s still in place (err %v)", f, err)
		}
		if _, err := os.Stat(filepath.Join(dir, f+quarantineSuffix)); err != nil {
			t.Fatalf("quarantined copy of %s missing: %v", f, err)
		}
	}
	// The server still trains models normally.
	if code := postJSON(t, ts.URL+"/api/models/RankSVM/train", nil, nil); code != 200 {
		t.Fatal("train after quarantine failed")
	}
}

// TestNonPersistableModelsNotSaved trains a model without an on-disk
// format and asserts no state file (and no save error) appears.
func TestNonPersistableModelsNotSaved(t *testing.T) {
	dir := t.TempDir()
	saveErrs := counterVal("serve.state.save_errors")
	_, ts := stateTestServer(t, dir)
	if code := postJSON(t, ts.URL+"/api/models/Heuristic-Age/train", nil, nil); code != 200 {
		t.Fatal("train failed")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("non-persistable train left %d files in the state dir", len(entries))
	}
	if got := counterVal("serve.state.save_errors"); got != saveErrs {
		t.Fatal("skipping a non-persistable model counted as a save error")
	}
}

// TestWriteModelFileSyncsStateDir pins the durability contract on the
// save path: after the temp file renames into place, the state
// directory itself is fsynced so the new directory entry survives a
// power cut. The seam swap stands in for a real crash test.
func TestWriteModelFileSyncsStateDir(t *testing.T) {
	dir := t.TempDir()
	var synced []string
	orig := syncDirFn
	syncDirFn = func(d string) error {
		synced = append(synced, d)
		return nil
	}
	t.Cleanup(func() { syncDirFn = orig })

	s, ts := stateTestServer(t, dir)
	if code := postJSON(t, ts.URL+"/api/models/RankSVM/train", nil, nil); code != 200 {
		t.Fatalf("train status %d", code)
	}
	want := s.def.stateDir
	found := false
	for _, d := range synced {
		if d == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("state dir %q never fsynced after rename (synced: %v)", want, synced)
	}
}

// TestRestoredSnapshotRebuiltOnce: a state file does not record the
// event seq its weights trained at, so a restored snapshot is stale for
// the first scheduler pass. The rebuild reproduces the restored ETag,
// and after it the scheduler is idle until the next event.
func TestRestoredSnapshotRebuiltOnce(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := stateTestServer(t, dir)
	if code := postJSON(t, ts1.URL+"/api/models/DirectAUC-ES/train", nil, nil); code != 200 {
		t.Fatal("train failed")
	}
	s2, _ := stateTestServer(t, dir)
	restored := s2.def.snapshot("DirectAUC-ES")
	if restored == nil || restored.eventSeq != -1 {
		t.Fatalf("restored snapshot %+v, want eventSeq -1", restored)
	}
	rebuildAll(s2, s2.staleTargets())
	rebuilt := s2.def.snapshot("DirectAUC-ES")
	if rebuilt == restored || rebuilt.eventSeq != 0 {
		t.Fatalf("first pass left the restored snapshot in place (eventSeq %d)", rebuilt.eventSeq)
	}
	if rebuilt.etag != restored.etag {
		t.Fatalf("rebuild changed the restored ETag: %s -> %s", restored.etag, rebuilt.etag)
	}
	before := s2.metrics.schedRebuilds.Value()
	rebuildAll(s2, s2.staleTargets())
	if got := s2.metrics.schedRebuilds.Value() - before; got != 0 {
		t.Fatalf("second pass started %d rebuilds, want 0", got)
	}
}
