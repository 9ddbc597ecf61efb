package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// The BENCH_<name>.json schema is versioned so future PRs can evolve the
// format without silently breaking regression tooling: readers reject
// files whose schema name or version they do not understand, instead of
// misinterpreting fields.
const (
	// SchemaName identifies the file format.
	SchemaName = "dcspanner/bench"
	// SchemaVersion is bumped on any incompatible field change.
	SchemaVersion = 1
)

// Measurement is one scenario's recorded run — the unit persisted as
// BENCH_<name>.json and the baseline future PRs regress against.
type Measurement struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`

	Name        string `json:"name"`
	Description string `json:"description"`

	// Environment: enough to judge whether two measurements are comparable.
	GeneratedAt string `json:"generated_at"` // RFC3339
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`

	// Inputs.
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	Workers    int    `json:"workers"` // resolved pool size (never 0)
	Warmup     int    `json:"warmup_iterations"`
	Iterations int    `json:"timed_iterations"`

	// Headline figures. BytesPerOp and AllocsPerOp are process-wide deltas
	// over the timed loop divided by iterations — an upper bound on the
	// scenario's own allocation, exact when nothing else runs.
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`

	// SerialNsPerOp times the identical work at workers=1 after the same
	// warmup; SpeedupVsSerial = SerialNsPerOp / NsPerOp. On a single-core
	// runner both collapse to NsPerOp and the speedup reports 1.
	SerialNsPerOp   int64   `json:"serial_ns_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`

	// Deterministic records that the serial and parallel runs produced the
	// same result fingerprint — the kernels' determinism contract observed
	// end to end (DESIGN.md §9).
	Deterministic bool   `json:"deterministic_across_workers"`
	Fingerprint   string `json:"fingerprint"` // 16 hex digits, FNV-1a of the results

	// Selected obs counters and gauges snapshotted from the scenario's
	// registry after the timed runs (e.g. oracle path counts, sweep sizes).
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Filename returns the canonical file name for a scenario measurement.
func Filename(name string) string { return "BENCH_" + name + ".json" }

// Encode renders the measurement as indented JSON with a trailing newline.
func (m *Measurement) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses and validates a measurement, rejecting unknown schemas.
func Decode(data []byte) (*Measurement, error) {
	var m Measurement
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("bench: malformed measurement: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the schema header and the fields every well-formed
// measurement must carry.
func (m *Measurement) Validate() error {
	switch {
	case m.Schema != SchemaName:
		return fmt.Errorf("bench: schema %q, want %q", m.Schema, SchemaName)
	case m.SchemaVersion != SchemaVersion:
		return fmt.Errorf("bench: schema version %d, want %d", m.SchemaVersion, SchemaVersion)
	case !nameRE.MatchString(m.Name):
		return fmt.Errorf("bench: invalid scenario name %q", m.Name)
	case m.GeneratedAt == "":
		return fmt.Errorf("bench: missing generated_at")
	case m.Workers < 1:
		return fmt.Errorf("bench: workers %d < 1", m.Workers)
	case m.Iterations < 1:
		return fmt.Errorf("bench: timed_iterations %d < 1", m.Iterations)
	case m.NsPerOp <= 0:
		return fmt.Errorf("bench: ns_per_op %d <= 0", m.NsPerOp)
	case m.SerialNsPerOp <= 0:
		return fmt.Errorf("bench: serial_ns_per_op %d <= 0", m.SerialNsPerOp)
	case m.SpeedupVsSerial <= 0:
		return fmt.Errorf("bench: speedup_vs_serial %g <= 0", m.SpeedupVsSerial)
	case len(m.Fingerprint) != 16:
		return fmt.Errorf("bench: fingerprint %q is not 16 hex digits", m.Fingerprint)
	}
	return nil
}

// WriteFile persists the measurement as dir/BENCH_<name>.json.
func (m *Measurement) WriteFile(dir string) (string, error) {
	data, err := m.Encode()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, Filename(m.Name))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadFile loads and validates a measurement file.
func ReadFile(path string) (*Measurement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
