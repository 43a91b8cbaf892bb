package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// ManifestSchema is the current manifest JSON schema version.
const ManifestSchema = 1

// PointRecord is one sweep point (or experiment arm) in a run manifest.
type PointRecord struct {
	Label       string             `json:"label"`
	WallSeconds float64            `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Manifest is the machine-readable record of one experiment run: what was
// run, with which knobs, and what each point cost. It is written alongside
// the text tables, never instead of them.
type Manifest struct {
	Schema      int            `json:"schema"`
	Tool        string         `json:"tool"`
	StartedAt   string         `json:"started_at"`
	WallSeconds float64        `json:"wall_seconds"`
	Seed        int64          `json:"seed"`
	Workers     int            `json:"workers"`
	Config      map[string]any `json:"config,omitempty"`
	Points      []PointRecord  `json:"points"`
}

// Recorder accumulates PointRecords from concurrent sweep workers and
// finalizes them into a Manifest. A nil *Recorder is a no-op, mirroring the
// Tracer fast path. Progress output (if enabled via SetProgress) goes to a
// side writer — normally stderr — never to the result stream, so table/CSV
// output stays byte-identical whether or not a recorder is attached.
type Recorder struct {
	mu       sync.Mutex
	tool     string
	started  time.Time
	seed     int64
	workers  int
	config   map[string]any
	points   []PointRecord
	progress io.Writer
	done     int
}

// NewRecorder starts a recorder for one run of the named tool.
func NewRecorder(tool string, seed int64, workers int, config map[string]any) *Recorder {
	return &Recorder{
		tool:    tool,
		started: time.Now(),
		seed:    seed,
		workers: workers,
		config:  config,
	}
}

// SetProgress directs a live one-line-per-point progress feed to w
// (normally os.Stderr). Pass nil to disable.
func (r *Recorder) SetProgress(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.progress = w
	r.mu.Unlock()
}

// Point records one completed sweep point with its wall-clock cost and a
// metrics snapshot. Safe to call from concurrent sweep workers.
func (r *Recorder) Point(label string, wall time.Duration, metrics map[string]float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.points = append(r.points, PointRecord{
		Label:       label,
		WallSeconds: wall.Seconds(),
		Metrics:     metrics,
	})
	r.done++
	if r.progress != nil {
		fmt.Fprintf(r.progress, "[%s] point %d done: %s (%.2fs)\n", r.tool, r.done, label, wall.Seconds())
	}
	r.mu.Unlock()
}

// Manifest finalizes the run into a Manifest. Points are sorted by label so
// the document is stable across worker counts and scheduling orders.
func (r *Recorder) Manifest() *Manifest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pts := make([]PointRecord, len(r.points))
	copy(pts, r.points)
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Label < pts[j].Label })
	return &Manifest{
		Schema:      ManifestSchema,
		Tool:        r.tool,
		StartedAt:   r.started.UTC().Format(time.RFC3339),
		WallSeconds: time.Since(r.started).Seconds(),
		Seed:        r.seed,
		Workers:     r.workers,
		Config:      r.config,
		Points:      pts,
	}
}

// WriteManifest finalizes the run and writes the manifest JSON to path.
func (r *Recorder) WriteManifest(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Manifest()); err != nil {
		return err
	}
	return f.Close()
}
