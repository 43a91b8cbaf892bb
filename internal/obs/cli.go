package obs

import (
	"errors"
	"flag"
	"io"
	"maps"
	"os"
	"runtime"
	"time"
)

// CLI is the observability half of a simulation command line: the flags
// cmd/paperexp and cmd/hybridsim share, and what honouring them takes. None
// of it may change what a run prints to stdout.
type CLI struct {
	fs                      *flag.FlagSet
	tracePath, manifestPath *string
	cpuProfile, memProfile  *string
	traceCap                *int
	progress                *bool

	// Recorder is the run's manifest recorder once Start has run; nil
	// unless -manifest or -progress was given.
	Recorder *Recorder

	traceFile    *os.File
	stopProfiles func() error
}

// Flags registers -trace, -tracecap, -manifest, -cpuprofile, -memprofile and
// -progress on fs, and keeps fs: the manifest's config is its flags.
func Flags(fs *flag.FlagSet) *CLI {
	return &CLI{
		fs:           fs,
		tracePath:    fs.String("trace", "", "write a JSONL structured event trace to this file"),
		traceCap:     fs.Int("tracecap", DefaultTraceCap, "trace ring-buffer capacity per tracer (with -trace)"),
		manifestPath: fs.String("manifest", "", "write a machine-readable run manifest (JSON) to this file"),
		cpuProfile:   fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memProfile:   fs.String("memprofile", "", "write a pprof heap profile to this file"),
		progress:     fs.Bool("progress", false, "stream per-point completion lines to stderr"),
	}
}

// Start begins the profiles, creates the -trace file and, with -manifest or
// -progress, the recorder (workers <= 0 is recorded as one per CPU, the pool
// size it stands for). The recorder's config is every flag of the set with
// its parsed value (a duration as its string), overlaid with resolved: the
// values a command derived from a flag rather than took as given. After a
// successful Start the caller owes one Close.
func (c *CLI) Start(tool string, seed int64, workers int, resolved map[string]any, stderr io.Writer) error {
	stop, err := StartProfiles(*c.cpuProfile, *c.memProfile)
	if err != nil {
		return err
	}
	if *c.tracePath != "" {
		if c.traceFile, err = os.Create(*c.tracePath); err != nil {
			return errors.Join(err, stop())
		}
	}
	c.stopProfiles = stop
	if *c.manifestPath != "" || *c.progress {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		config := map[string]any{}
		c.fs.VisitAll(func(f *flag.Flag) {
			var v any = f.Value.String()
			if g, ok := f.Value.(flag.Getter); ok {
				v = g.Get()
			}
			if d, ok := v.(time.Duration); ok {
				v = d.String()
			}
			config[f.Name] = v
		})
		maps.Copy(config, resolved)
		c.Recorder = NewRecorder(tool, seed, workers, config)
		if *c.progress {
			c.Recorder.SetProgress(stderr)
		}
	}
	return nil
}

// Tracer returns a fresh ring labelled label, or nil without -trace. One ring
// per unit that runs on its own (an experiment, a sweep point) keeps
// concurrent units from interleaving.
func (c *CLI) Tracer(label string) *Tracer {
	if c.traceFile == nil {
		return nil
	}
	tr := NewTracer(*c.traceCap)
	tr.SetLabel(label)
	return tr
}

// WriteTrace appends the rings to the -trace file, in the order given.
func (c *CLI) WriteTrace(tracers ...*Tracer) error {
	if c.traceFile == nil {
		return nil
	}
	for _, tr := range tracers {
		if err := tr.WriteJSONL(c.traceFile); err != nil {
			return err
		}
	}
	return nil
}

// WriteManifest writes the -manifest file; a run that failed does not call it.
func (c *CLI) WriteManifest() error {
	if *c.manifestPath == "" {
		return nil
	}
	return c.Recorder.WriteManifest(*c.manifestPath)
}

// Close closes the trace file and flushes the profiles.
func (c *CLI) Close() error {
	var err error
	if c.traceFile != nil {
		err = c.traceFile.Close()
	}
	return errors.Join(err, c.stopProfiles())
}
