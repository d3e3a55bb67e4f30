package experiments

// Sweep durability. The manifest is an append-only, checksummed JSONL
// journal (persist.Journal) named manifest.json in outDir, written only
// through Merge. Each completed experiment appends one record carrying
// the config hash it ran under, its status, and the SHA-256 of its
// committed CSV, so a later -resume can prove an artifact is both present
// and current before skipping the recompute. Replay takes the latest
// record per experiment; a torn final record — the crash case — is
// discarded by the journal layer.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"

	"graphio/internal/obs"
)

const (
	// ManifestName is the sweep manifest journal inside outDir.
	ManifestName = "manifest.json"
	// manifestLockName is the single-writer lock guarding outDir.
	manifestLockName = "manifest.lock"
)

// ErrSweepLocked reports that another live process is already sweeping
// into the same outDir. (A lock left by a killed process is stolen, not
// reported.)
var ErrSweepLocked = errors.New("experiments: another sweep is running in this outDir")

// Record kinds. A sweep record opens each run; experiment records carry
// per-artifact state; a report record seals the combined report.txt.
const (
	recSweep      = "sweep"
	recExperiment = "experiment"
	recReport     = "report"
)

// manifestRecord is one journal entry. Fields are pointers-free and
// omitempty so records stay one short JSON line each.
type manifestRecord struct {
	Kind string `json:"kind"`

	// Every kind. ConfigHash pins the Config the work is valid for;
	// stamping it per record (not just on the sweep header) keeps each
	// experiment's skip decision self-contained across resumed runs.
	ConfigHash string `json:"config_hash,omitempty"`
	Time       string `json:"time,omitempty"` // RFC3339, informational

	// recSweep.
	Resumed bool `json:"resumed,omitempty"`

	// recExperiment.
	Name    string `json:"name,omitempty"`
	Title   string `json:"title,omitempty"` // table title, for report regeneration
	Status  string `json:"status,omitempty"`
	Skipped bool   `json:"skipped,omitempty"` // verified and reused, not recomputed
	Error   string `json:"error,omitempty"`
	WallMS  int64  `json:"wall_ms,omitempty"`

	// recExperiment, distributed sweeps only: which worker produced the
	// artifact and how many attempts a poisoned shard burned. Informational
	// — resume skip decisions ignore both, so a merged manifest stays fully
	// resume-compatible with a single-process one.
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`

	// recExperiment and recReport: the committed artifact and its hash.
	Artifact string `json:"artifact,omitempty"`
	SHA256   string `json:"sha256,omitempty"`

	// recExperiment: the telemetry scope the experiment ran under and the
	// digest of that scope's metric snapshot at completion, tying the
	// manifest row to its section in a -metrics-out dump and to the
	// scope/scope_id tags on -events-out records. Informational only:
	// scope IDs are per-process, so resume skip decisions ignore both.
	ScopeID       string `json:"scope_id,omitempty"`
	MetricsSHA256 string `json:"metrics_sha256,omitempty"`
}

const (
	statusOK     = "ok"
	statusFailed = "failed"
	// statusPoisoned marks a shard a distributed sweep gave up on after its
	// attempt cap: permanently failed for *this* sweep, but — like any
	// non-ok record — re-run by a later -resume, so poisoning never
	// strands an experiment forever.
	statusPoisoned = "poisoned"
)

// Hash returns a stable hex digest of every Config field that affects
// experiment results. Two sweeps with equal hashes produce identical
// artifacts, so a resume may reuse verified ones; operational knobs that
// cannot change results (Progress, ExperimentTimeout, Resume, the
// AfterExperiment hook) are deliberately excluded.
func (c Config) Hash() string {
	shadow := struct {
		V                int // bump to invalidate every old manifest on format change
		FFTLevels        []int
		FFTMemories      []int
		MatMulSizes      []int
		MatMulMemories   []int
		StrassenSizes    []int
		StrassenMemories []int
		BHKCities        []int
		BHKMemories      []int
		MinCutTimeoutNS  int64
		MinCutMaxN       int
		Solver           int
		MaxK             int
		SandwichSamples  int
		ERSizes          []int
		ERP0             float64
		Seed             int64
	}{
		V:         1,
		FFTLevels: c.FFTLevels, FFTMemories: c.FFTMemories,
		MatMulSizes: c.MatMulSizes, MatMulMemories: c.MatMulMemories,
		StrassenSizes: c.StrassenSizes, StrassenMemories: c.StrassenMemories,
		BHKCities: c.BHKCities, BHKMemories: c.BHKMemories,
		MinCutTimeoutNS: c.MinCutTimeout.Nanoseconds(), MinCutMaxN: c.MinCutMaxN,
		Solver: int(c.Solver), MaxK: c.MaxK,
		SandwichSamples: c.SandwichSamples,
		ERSizes:         c.ERSizes, ERP0: c.ERP0, Seed: c.Seed,
	}
	b, err := json.Marshal(shadow)
	if err != nil {
		// Marshalling a struct of ints and slices cannot fail; if it ever
		// does, an unforgeable hash disables all skipping rather than
		// risking a stale artifact.
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// stampScope annotates an experiment record with its telemetry scope.
// Skipped when telemetry is off: the digest of an always-empty snapshot
// carries no information, and the manifest should stay byte-stable for
// sweeps run without -metrics.
func stampScope(rec *manifestRecord, sc *obs.Scope) {
	if sc == nil || !obs.Enabled() {
		return
	}
	rec.ScopeID = sc.ID()
	rec.MetricsSHA256 = sc.Digest()
}

// skipped re-records a verified prior result, so the manifest's tail
// always reflects the latest sweep's view of every experiment.
func skipped(prior manifestRecord) manifestRecord {
	prior.Skipped = true
	return prior
}

// sha256Bytes hashes an in-memory artifact.
func sha256Bytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
