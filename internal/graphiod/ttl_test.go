package graphiod

// Tests for the artifact-store TTL sweep: unpinned artifacts past the TTL
// go, pinned or fresh ones stay, and New runs the sweep at startup.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"os"
	"testing"
	"time"
)

// plantArtifact writes a fake artifact with a deterministic content key
// and backdates its mtime by age. It returns the key.
func plantArtifact(t *testing.T, dir, seed string, age time.Duration) string {
	t.Helper()
	if err := os.MkdirAll(resultsDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(seed))
	key := hex.EncodeToString(sum[:])
	path := artifactPath(dir, key)
	//lint:ignore persist-writes plants a fake artifact fixture in t.TempDir for the sweeper to find
	if err := os.WriteFile(path, []byte(`{"seed":"`+seed+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if age > 0 {
		old := time.Now().Add(-age)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	return key
}

func artifactExists(t *testing.T, dir, key string) bool {
	t.Helper()
	_, err := os.Stat(artifactPath(dir, key))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

func TestSweepArtifactsTTL(t *testing.T) {
	dir := t.TempDir()
	oldOrphan := plantArtifact(t, dir, "old-orphan", 48*time.Hour)
	freshOrphan := plantArtifact(t, dir, "fresh-orphan", 0)

	st, err := openStore(dir, 1, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	// A cached result whose job row retention pruned: its cache entry must
	// be evicted along with the file, or a resubmission would hit an
	// artifact that is gone.
	pruned := jobSpec{V: 1, Spec: "chain:4", M: 2, MaxK: 1, Solver: "dense"}
	for _, spec := range []jobSpec{pruned, {V: 1, Spec: "chain:5", M: 2, MaxK: 1, Solver: "dense"}} {
		if _, err := st.accept(spec, 0, "c", "h", time.Second, admitLimits{}); err != nil {
			t.Fatal(err)
		}
		j, _, _ := st.jobs.Claim("")
		sha, err := st.commitArtifact(j.Key, []byte(`{"spec":"`+spec.Spec+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.jobs.Complete(j.ID, sha, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(artifactPath(dir, pruned.Key()), old, old); err != nil {
		t.Fatal(err)
	}

	if removed, err := st.sweepArtifacts(0); err != nil || removed != 0 {
		t.Fatalf("sweep with ttl 0 = (%d, %v), want a no-op", removed, err)
	}
	removed, err := st.sweepArtifacts(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("sweep removed %d artifact(s), want 2", removed)
	}
	if artifactExists(t, dir, oldOrphan) || artifactExists(t, dir, pruned.Key()) {
		t.Error("expired unpinned artifact survived the sweep")
	}
	if !artifactExists(t, dir, freshOrphan) {
		t.Error("fresh artifact was reaped")
	}
	if j, err := st.accept(pruned, 0, "c", "h", time.Second, admitLimits{}); err != nil || j.Cached {
		t.Errorf("resubmit after the sweep = %+v, %v; want a cache miss (entry evicted with its artifact)", j, err)
	}
}

// TestSweepArtifactsPinsJobRows: an artifact a retained job row references
// is never reaped, however old — expiring it would make WAL replay re-run
// the job.
func TestSweepArtifactsPinsJobRows(t *testing.T) {
	srv, url := newTestServer(t, Config{Workers: 1})
	resp := submit(t, url, JobRequest{Spec: "chain:32", M: 8, MaxK: 4, Solver: "dense"}, http.StatusAccepted)
	info := waitState(t, srv, resp.ID, StateDone)

	path := artifactPath(srv.cfg.DataDir, info.Key)
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	removed, err := srv.store.sweepArtifacts(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("sweep reaped %d pinned artifact(s)", removed)
	}
	if !artifactExists(t, srv.cfg.DataDir, info.Key) {
		t.Error("artifact pinned by a live job row was deleted")
	}
}

// TestNewSweepsOnStartup: a daemon configured with a TTL reaps expired
// orphans before serving.
func TestNewSweepsOnStartup(t *testing.T) {
	dir := t.TempDir()
	orphan := plantArtifact(t, dir, "startup-orphan", 48*time.Hour)

	srv, _ := newTestServer(t, Config{DataDir: dir, Workers: 1, ArtifactTTL: 24 * time.Hour})
	if artifactExists(t, dir, orphan) {
		t.Error("expired orphan survived the startup sweep")
	}
	// The sweeper goroutine must not block Drain or Close (joined via wg).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain with sweeper running: %v", err)
	}
}
