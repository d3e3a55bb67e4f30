package obs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// CLI bundles the standard observability flags a binary exposes and the
// begin/finish lifecycle behind them. Both specio and cmd/experiments use
// it so the flag names and semantics stay identical:
//
//	-v               phase/solver telemetry log to stderr
//	-log-json        telemetry log as slog JSON lines instead of text
//	-metrics-out F   JSON metrics dump written to F on exit
//	-trace-out F     Chrome trace-event JSON of completed spans (Perfetto)
//	-events-out F    per-iteration solver events, CRC-framed JSONL journal
//	-debug-addr A    HTTP debug server: /debug/pprof/, /metrics, /progress
//	-cpuprofile F    runtime/pprof CPU profile
//	-memprofile F    runtime/pprof heap profile (captured at exit)
//
//	-timeout D       global wall-clock budget (Context deadline; 0 = none)
//
// Begin also installs a SIGINT/SIGTERM handler. The first signal cancels
// Context() and lets the pipeline wind down on its own — in-flight solves
// notice the cancellation at their next iteration boundary, completed
// output stays on disk, and the command's own exit path flushes telemetry
// through Finish. A second signal stops waiting: it flushes immediately
// and exits 130.
type CLI struct {
	Verbose    bool
	LogJSON    bool
	MetricsOut string
	TraceOut   string
	EventsOut  string
	DebugAddr  string
	CPUProfile string
	MemProfile string
	Timeout    time.Duration

	stopCPU     func() error
	stopHTTP    func() error
	ctx         context.Context
	cancelCtx   context.CancelFunc
	finished    chan struct{}
	start       time.Time
	interrupted atomic.Bool
	finishOnce  sync.Once
	finishErr   error
}

// AddFlags registers the observability flags on fs and returns the bundle
// to Begin/Finish around the command body.
func AddFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.BoolVar(&c.Verbose, "v", false, "log phase timings and solver telemetry to stderr")
	fs.BoolVar(&c.LogJSON, "log-json", false, "emit the telemetry log as slog JSON lines (with scope correlation IDs) instead of text; implies -v")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write collected metrics as JSON to this file on exit")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write completed spans as Chrome trace-event JSON to this file on exit (open in Perfetto)")
	fs.StringVar(&c.EventsOut, "events-out", "", "write per-iteration solver events as a CRC-framed JSONL journal to this file on exit (render with obsreport convergence)")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve /debug/pprof/, /metrics and /progress on this host:port while running")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	// Some subcommands already own a -timeout flag with narrower scope
	// (specio mincut's per-sweep cutoff); the global wall-clock budget only
	// claims the name when it is free.
	if fs.Lookup("timeout") == nil {
		fs.DurationVar(&c.Timeout, "timeout", 0, "global wall-clock budget for the whole run; on expiry the pipeline winds down like an interrupt (0 = unlimited)")
	}
	return c
}

// Begin applies the parsed flags: enables the registry, verbose sink,
// trace collector and/or debug server, starts the CPU profile, and
// installs the interrupt handler. Call it after flag parsing, before the
// work.
func (c *CLI) Begin() error {
	c.start = time.Now()
	if c.LogJSON {
		SetLogJSON(os.Stderr)
	} else if c.Verbose {
		SetVerbose(os.Stderr)
	}
	if c.Verbose || c.LogJSON || c.MetricsOut != "" || c.TraceOut != "" || c.EventsOut != "" || c.DebugAddr != "" {
		Enable(true)
	}
	if c.TraceOut != "" {
		StartTrace()
	}
	if c.EventsOut != "" {
		StartEvents()
	}
	if c.DebugAddr != "" {
		stop, addr, err := StartDebugServer(c.DebugAddr)
		if err != nil {
			return err
		}
		c.stopHTTP = stop
		fmt.Fprintf(os.Stderr, "obs: debug server listening on http://%s\n", addr)
	}
	if c.CPUProfile != "" {
		stop, err := StartCPUProfile(c.CPUProfile)
		if err != nil {
			return err
		}
		c.stopCPU = stop
	}
	// Interrupt handling goes in last so a signal-triggered flush sees
	// every sink above already installed.
	if c.Timeout > 0 {
		//lint:ignore ctx-flow Begin mints the process-root context every command descends from; there is no outer ctx to thread
		c.ctx, c.cancelCtx = context.WithTimeout(context.Background(), c.Timeout)
	} else {
		//lint:ignore ctx-flow Begin mints the process-root context every command descends from; there is no outer ctx to thread
		c.ctx, c.cancelCtx = context.WithCancel(context.Background())
	}
	c.finished = make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	//lint:ignore goroutine-join process-lifetime signal watcher: it exits through c.finished when Finish runs, or takes the process down itself
	go func() {
		defer signal.Stop(sigs)
		select {
		case <-c.finished:
			return // clean exit: the command finished before any signal
		case sig := <-sigs:
			// First signal: cancel the pipeline context and wait. In-flight
			// solves stop at their next iteration boundary, completed CSVs
			// stay on disk, and the command's exit path runs Finish, which
			// flushes telemetry and closes c.finished.
			c.interrupted.Store(true)
			fmt.Fprintf(os.Stderr, "obs: %v: cancelling pipeline, waiting for in-flight work (signal again to exit immediately)\n", sig)
			c.cancelCtx()
			select {
			case <-c.finished:
				return
			case <-sigs:
				// Second signal: the wind-down is taking too long (or is
				// stuck). Flush what we have and go.
				fmt.Fprintln(os.Stderr, "obs: second signal: flushing telemetry and exiting")
				c.Finish() //lint:ignore errcheck second-signal path exits non-zero regardless; the flush is best-effort
				os.Exit(130)
			}
		}
	}()
	return nil
}

// Context returns the pipeline context: cancelled on SIGINT/SIGTERM and
// deadlined by -timeout (Background before Begin). Every solve in the run
// should descend from it.
func (c *CLI) Context() context.Context {
	if c.ctx == nil {
		//lint:ignore ctx-flow Background-before-Begin is this accessor's documented fallback; the real root is minted in Begin
		return context.Background()
	}
	return c.ctx
}

// Interrupted reports whether a SIGINT/SIGTERM triggered the context
// cancellation. Commands use it to exit 130 after a clean wind-down.
func (c *CLI) Interrupted() bool {
	return c.interrupted.Load()
}

// Finish stops profiling and the debug server, records total wall time,
// and writes the metrics and trace dumps. It is idempotent: the interrupt
// handler and the normal exit path may both call it, and only the first
// call does the work (later calls return its error).
func (c *CLI) Finish() error {
	c.finishOnce.Do(func() { c.finishErr = c.finish() })
	return c.finishErr
}

func (c *CLI) finish() error {
	if c.finished != nil {
		close(c.finished) // release the signal handler; after this ^C kills hard
	}
	if c.cancelCtx != nil {
		c.cancelCtx()
	}
	var firstErr error
	if c.stopCPU != nil {
		firstErr = c.stopCPU()
		c.stopCPU = nil
	}
	if c.MemProfile != "" {
		if err := WriteHeapProfile(c.MemProfile); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	wall := time.Since(c.start)
	process.Observe("wall", wall)
	process.SetGauge("wall_seconds", wall.Seconds())
	logf("total wall time %v", wall.Round(time.Microsecond))
	if c.MetricsOut != "" {
		if err := DumpJSON(c.MetricsOut); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.TraceOut != "" {
		if err := DumpTrace(c.TraceOut); err != nil && firstErr == nil {
			firstErr = err
		}
		StopTrace()
	}
	if c.EventsOut != "" {
		// Same contract as the trace dump: the journal is committed
		// atomically, so the first-signal flush is CRC-clean end to end.
		if err := DumpEvents(c.EventsOut); err != nil && firstErr == nil {
			firstErr = err
		}
		StopEvents()
	}
	if c.stopHTTP != nil {
		if err := c.stopHTTP(); err != nil && firstErr == nil {
			firstErr = err
		}
		c.stopHTTP = nil
	}
	return firstErr
}
