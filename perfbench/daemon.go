package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one mpschedd process, started with default flags on a
// loopback port the kernel picks.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	done   chan struct{} // closed once the process has exited
	err    error         // its exit status, set before done closes
	stderr bytes.Buffer  // the daemon's log, reported when it fails
}

const (
	readyTimeout = 30 * time.Second
	stopTimeout  = 30 * time.Second
)

// startDaemon starts mpschedd and returns once it answers /healthz.
func startDaemon(ctx context.Context, path string, client *http.Client) (*daemon, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0")
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	cmd.Stderr = &d.stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mpschedd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "mpschedd listening on "); ok {
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained until exit
		d.err = cmd.Wait()
		close(d.done)
	}()

	wait, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("mpschedd exited before listening: %v: %s", d.err, &d.stderr)
	case <-wait.Done():
		d.kill()
		return nil, errors.New("mpschedd did not report its address")
	}
	for {
		req, _ := http.NewRequestWithContext(wait, http.MethodGet, d.base+"/healthz", nil)
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if wait.Err() != nil {
			d.kill()
			return nil, errors.New("mpschedd never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the daemon's peak resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the daemon to drain and waits for it to exit, killing it if
// the drain takes longer than stopTimeout.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal mpschedd: %w", err)
	}
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("mpschedd exit: %w: %s", d.err, &d.stderr)
		}
		return nil
	case <-time.After(stopTimeout):
		d.kill()
		return errors.New("mpschedd did not drain")
	}
}

// kill ends the daemon without a drain, if it is still running, and waits
// for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it has already exited
	<-d.done
}
