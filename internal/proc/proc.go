// Package proc controls systems under test that run as external
// processes — the paper's deployment model, where ConfErr drives real
// server binaries through start/stop scripts (§5.1). It provides a
// Controller that writes configuration files to a work directory, starts
// the process, probes for readiness, captures output, and stops the
// process gracefully (SIGTERM, then SIGKILL after a grace period).
package proc

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"conferr/internal/suts"
)

// Options configures a Controller.
type Options struct {
	// Name identifies the SUT in profiles.
	Name string
	// Command is the executable to run.
	Command string
	// Args are the command's arguments. The placeholder {dir} is replaced
	// with the work directory holding the configuration files.
	Args []string
	// WorkDir is the directory configuration files are written to; empty
	// means a fresh temporary directory per Start.
	WorkDir string
	// DefaultFiles is the initial configuration (suts.System contract).
	DefaultFiles suts.Files
	// ReadyProbe, when non-nil, is polled after the process starts; Start
	// returns once it succeeds. If the process exits first, its output is
	// reported as a startup error.
	ReadyProbe func() error
	// ReadyTimeout bounds the readiness wait (default 5s). A process that
	// is still running but never becomes ready is killed and reported as
	// a startup failure — a plausible effect of a configuration error.
	ReadyTimeout time.Duration
	// StopSignal is sent to stop the process (default SIGTERM).
	StopSignal os.Signal
	// StopGrace is how long to wait after StopSignal before SIGKILL
	// (default 3s).
	StopGrace time.Duration
	// Env is appended to the child's environment.
	Env []string
}

// lockedBuffer is a bytes.Buffer safe for the concurrent writes of the
// exec pipe copier and the reads of Output / the readiness loop.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// Write implements io.Writer.
func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// String returns the accumulated output.
func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Controller runs an external process as a suts.System.
type Controller struct {
	opts Options

	mu     sync.Mutex
	cmd    *exec.Cmd
	output *lockedBuffer
	dir    string
	exited chan error
}

var _ suts.System = (*Controller)(nil)

// New returns a controller for the given options.
func New(opts Options) (*Controller, error) {
	if opts.Command == "" {
		return nil, errors.New("proc: Command is required")
	}
	if opts.Name == "" {
		opts.Name = filepath.Base(opts.Command)
	}
	if opts.ReadyTimeout == 0 {
		opts.ReadyTimeout = 5 * time.Second
	}
	if opts.StopGrace == 0 {
		opts.StopGrace = 3 * time.Second
	}
	if opts.StopSignal == nil {
		opts.StopSignal = syscall.SIGTERM
	}
	return &Controller{opts: opts}, nil
}

// Name implements suts.System.
func (c *Controller) Name() string { return c.opts.Name }

// DefaultConfig implements suts.System.
func (c *Controller) DefaultConfig() suts.Files {
	out := make(suts.Files, len(c.opts.DefaultFiles))
	for k, v := range c.opts.DefaultFiles {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// Start implements suts.System: write the files, spawn the process, wait
// for readiness.
func (c *Controller) Start(files suts.Files) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cmd != nil {
		return errors.New("proc: already started")
	}

	dir := c.opts.WorkDir
	if dir == "" {
		d, err := os.MkdirTemp("", "conferr-sut-*")
		if err != nil {
			return fmt.Errorf("proc: temp dir: %w", err)
		}
		dir = d
	}
	c.dir = dir
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("proc: mkdir for %s: %w", name, err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("proc: writing %s: %w", name, err)
		}
	}

	args := make([]string, len(c.opts.Args))
	for i, a := range c.opts.Args {
		args[i] = strings.ReplaceAll(a, "{dir}", dir)
	}
	cmd := exec.Command(c.opts.Command, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), c.opts.Env...)
	// Run the SUT in its own process group so stop signals reach any
	// children it spawned, and cap how long Wait lingers on inherited
	// output pipes after the main process exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.WaitDelay = time.Second
	out := &lockedBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		return &suts.StartupError{System: c.opts.Name, Msg: fmt.Sprintf("spawn: %v", err)}
	}
	c.cmd = cmd
	c.output = out
	c.exited = make(chan error, 1)
	go func(ch chan error) { ch <- cmd.Wait() }(c.exited)

	// Readiness: either the probe succeeds, or the process exits (its
	// output is the SUT's complaint), or we time out.
	deadline := time.Now().Add(c.opts.ReadyTimeout)
	for {
		select {
		case err := <-c.exited:
			msg := strings.TrimSpace(out.String())
			if msg == "" && err != nil {
				msg = err.Error()
			}
			c.cmd = nil
			return &suts.StartupError{System: c.opts.Name, Msg: msg}
		default:
		}
		if c.opts.ReadyProbe == nil {
			// No probe: a brief settle period, then consider it up if it
			// has not exited.
			select {
			case err := <-c.exited:
				msg := strings.TrimSpace(out.String())
				if msg == "" && err != nil {
					msg = err.Error()
				}
				c.cmd = nil
				return &suts.StartupError{System: c.opts.Name, Msg: msg}
			case <-time.After(50 * time.Millisecond):
				return nil
			}
		}
		if err := c.opts.ReadyProbe(); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			c.killLocked()
			return &suts.StartupError{System: c.opts.Name,
				Msg: fmt.Sprintf("not ready after %v: %s", c.opts.ReadyTimeout,
					strings.TrimSpace(out.String()))}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Stop implements suts.System: signal, wait for the grace period, then
// kill.
func (c *Controller) Stop() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.cleanupLocked()
	if c.cmd == nil || c.cmd.Process == nil {
		return nil
	}
	c.signalGroup(c.opts.StopSignal)
	select {
	case <-c.exited:
		c.cmd = nil
		return nil
	case <-time.After(c.opts.StopGrace):
		c.killLocked()
		return nil
	}
}

// killLocked force-kills the child's process group and reaps it. Caller
// holds mu.
func (c *Controller) killLocked() {
	if c.cmd == nil || c.cmd.Process == nil {
		return
	}
	c.signalGroup(syscall.SIGKILL)
	select {
	case <-c.exited:
	case <-time.After(2 * time.Second):
	}
	c.cmd = nil
}

// signalGroup delivers sig to the child's process group (falling back to
// the child itself). Caller holds mu.
func (c *Controller) signalGroup(sig os.Signal) {
	s, ok := sig.(syscall.Signal)
	if !ok {
		_ = c.cmd.Process.Signal(sig)
		return
	}
	if err := syscall.Kill(-c.cmd.Process.Pid, s); err != nil {
		_ = c.cmd.Process.Signal(sig)
	}
}

// cleanupLocked removes a temporary work directory. Caller holds mu.
func (c *Controller) cleanupLocked() {
	if c.opts.WorkDir == "" && c.dir != "" {
		_ = os.RemoveAll(c.dir)
		c.dir = ""
	}
}
