package obs

import (
	"flag"
	"fmt"
	"os"
)

// CLI bundles the telemetry flags shared by the command-line tools
// (-trace, -manifest, -v, -debug-addr) and the setup/teardown around a
// run. Usage:
//
//	cli := obs.NewCLI(flag.CommandLine)
//	flag.Parse()
//	if err := cli.Start("reproduce"); err != nil { ... }
//	... run ...
//	if err := cli.Finish(func(m *obs.Manifest) { m.Jobs = jobs }); err != nil { ... }
type CLI struct {
	TracePath    string
	ManifestPath string
	DebugAddr    string
	Verbose      bool

	cmd   string
	rec   *Recorder
	force bool
}

// NewCLI registers the telemetry flags on fs.
func NewCLI(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.TracePath, "trace", "", "write a Chrome trace_event JSON file (open in Perfetto or chrome://tracing)")
	fs.StringVar(&c.ManifestPath, "manifest", "", "write a machine-readable run manifest (JSON)")
	fs.BoolVar(&c.Verbose, "v", false, "print progress lines to stderr")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	return c
}

// ForceRecorder makes the next Start install a recorder even when no
// trace or manifest path was requested — callers that embed the manifest
// elsewhere (the fidelity run report) need stage timings regardless.
// Call it after flag parsing and before Start.
func (c *CLI) ForceRecorder() { c.force = true }

// Start applies the parsed flags: verbose mode, the recorder (installed
// when a trace or manifest was requested, or ForceRecorder was called),
// and the debug server. cmd names the tool in the manifest and the debug
// banner.
func (c *CLI) Start(cmd string) error {
	c.cmd = cmd
	SetVerbose(c.Verbose)
	if c.TracePath != "" || c.ManifestPath != "" || c.force {
		c.rec = NewRecorder()
		Install(c.rec)
	}
	if c.DebugAddr != "" {
		// The server serves until the process exits.
		addr, _, err := StartDebugServer(c.DebugAddr)
		if err != nil {
			return fmt.Errorf("%s: debug server: %w", cmd, err)
		}
		fmt.Fprintf(os.Stderr, "%s: debug server at http://%s/debug/pprof/ (expvar at /debug/vars)\n", cmd, addr)
	}
	return nil
}

// Recording reports whether Start installed a recorder.
func (c *CLI) Recording() bool { return c.rec != nil }

// BuildManifest assembles the run manifest as of now, applying customize
// (may be nil). It returns nil when no recorder is installed. Finish
// builds its -manifest file the same way, so a report embedding this
// manifest and the file on disk agree.
func (c *CLI) BuildManifest(customize func(*Manifest)) *Manifest {
	if c.rec == nil {
		return nil
	}
	m := c.rec.BuildManifest(c.cmd, os.Args[1:])
	if customize != nil {
		customize(&m)
	}
	return &m
}

// Finish writes the requested trace and manifest files. customize (may be
// nil) edits the manifest before it is written — the place to fill Jobs,
// ConfigHash, Cache and Fidelity. Safe to call when no recorder was
// installed.
func (c *CLI) Finish(customize func(*Manifest)) error {
	if c.rec == nil {
		return nil
	}
	if c.TracePath != "" {
		if err := c.rec.WriteChromeTraceFile(c.TracePath); err != nil {
			return fmt.Errorf("%s: writing trace: %w", c.cmd, err)
		}
		Logf("trace written to %s", c.TracePath)
	}
	if c.ManifestPath != "" {
		m := c.BuildManifest(customize)
		if err := WriteManifestFile(c.ManifestPath, *m); err != nil {
			return fmt.Errorf("%s: writing manifest: %w", c.cmd, err)
		}
		Logf("manifest written to %s", c.ManifestPath)
	}
	return nil
}
