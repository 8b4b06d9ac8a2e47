package proc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conferr/internal/suts"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing Command accepted")
	}
	c, err := New(Options{Command: "/bin/sh"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "sh" {
		t.Errorf("default Name = %q", c.Name())
	}
}

func TestStartWritesFilesAndRuns(t *testing.T) {
	// The "server": a shell loop that exits 0 only if its config says ok.
	c, err := New(Options{
		Name:    "looper",
		Command: "/bin/sh",
		Args:    []string{"-c", "grep -q ok {dir}/app.conf && sleep 60"},
		DefaultFiles: suts.Files{
			"app.conf": []byte("status = ok\n"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(c.DefaultConfig()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	dir := c.WorkDir()
	if data, err := os.ReadFile(filepath.Join(dir, "app.conf")); err != nil || !strings.Contains(string(data), "ok") {
		t.Errorf("config not written: %v %q", err, data)
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("temp work dir not cleaned up")
	}
}

func TestStartupFailureReported(t *testing.T) {
	c, err := New(Options{
		Name:         "failer",
		Command:      "/bin/sh",
		Args:         []string{"-c", "echo 'unknown directive frobnicate' >&2; exit 3"},
		DefaultFiles: suts.Files{"x.conf": []byte("frobnicate\n")},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Start(c.DefaultConfig())
	if err == nil {
		c.Stop()
		t.Fatal("crashing process reported as started")
	}
	if !suts.IsStartupError(err) {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(err.Error(), "unknown directive frobnicate") {
		t.Errorf("child output not captured: %v", err)
	}
	if err := c.Stop(); err != nil {
		t.Errorf("Stop after failed start: %v", err)
	}
}

func TestReadyProbe(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "ready")
	c, err := New(Options{
		Name:    "prober",
		Command: "/bin/sh",
		Args:    []string{"-c", fmt.Sprintf("sleep 0.1; touch %s; sleep 60", marker)},
		ReadyProbe: func() error {
			if _, err := os.Stat(marker); err != nil {
				return err
			}
			return nil
		},
		ReadyTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Start(suts.Files{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if time.Since(start) < 90*time.Millisecond {
		t.Error("Start returned before the probe could succeed")
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestReadyTimeoutKillsChild(t *testing.T) {
	c, err := New(Options{
		Name:         "never-ready",
		Command:      "/bin/sh",
		Args:         []string{"-c", "sleep 60"},
		ReadyProbe:   func() error { return errors.New("not yet") },
		ReadyTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Start(suts.Files{})
	if err == nil {
		c.Stop()
		t.Fatal("never-ready process reported started")
	}
	if !suts.IsStartupError(err) || !strings.Contains(err.Error(), "not ready") {
		t.Errorf("err = %v", err)
	}
	_ = c.Stop()
}

func TestStopEscalatesToKill(t *testing.T) {
	// A child that ignores SIGTERM must be SIGKILLed after the grace
	// period.
	c, err := New(Options{
		Name:      "stubborn",
		Command:   "/bin/sh",
		Args:      []string{"-c", "trap '' TERM; sleep 60"},
		StopGrace: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(suts.Files{}); err != nil {
		t.Fatal(err)
	}
	// Give the shell a moment to install the trap.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Errorf("Stop returned too fast (%v); trap not exercised?", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Errorf("Stop took %v; kill escalation failed", elapsed)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	c, err := New(Options{
		Command: "/bin/sh",
		Args:    []string{"-c", "sleep 60"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(suts.Files{}); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Start(suts.Files{}); err == nil {
		t.Error("second Start accepted")
	}
}

func TestStopWithoutStart(t *testing.T) {
	c, _ := New(Options{Command: "/bin/true"})
	if err := c.Stop(); err != nil {
		t.Errorf("Stop without Start: %v", err)
	}
}

func TestSpawnErrorIsStartupError(t *testing.T) {
	c, _ := New(Options{Command: "/no/such/binary"})
	err := c.Start(suts.Files{})
	if err == nil || !suts.IsStartupError(err) {
		t.Errorf("err = %v", err)
	}
}

func TestOutputCapture(t *testing.T) {
	c, _ := New(Options{
		Command: "/bin/sh",
		Args:    []string{"-c", "echo hello-from-child; sleep 60"},
	})
	if err := c.Start(suts.Files{}); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(c.Output(), "hello-from-child") {
		if time.Now().After(deadline) {
			t.Fatalf("output not captured: %q", c.Output())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFixedWorkDirPreserved(t *testing.T) {
	dir := t.TempDir()
	c, _ := New(Options{
		Command:      "/bin/sh",
		Args:         []string{"-c", "sleep 60"},
		WorkDir:      dir,
		DefaultFiles: suts.Files{"nested/app.conf": []byte("x\n")},
	})
	if err := c.Start(c.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	// A caller-provided work dir must survive Stop.
	if _, err := os.Stat(filepath.Join(dir, "nested", "app.conf")); err != nil {
		t.Errorf("fixed work dir cleaned up: %v", err)
	}
}

// Output returns the child's combined stdout/stderr captured so far.
func (c *Controller) Output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.output == nil {
		return ""
	}
	return c.output.String()
}

// WorkDir returns the directory the current configuration was written to.
func (c *Controller) WorkDir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}
