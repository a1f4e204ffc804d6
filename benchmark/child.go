package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childRun is one finished child, as its launcher measured it.
type childRun struct {
	stdout []byte
	wall   time.Duration
	maxRSS int64 // KiB, the child's ru_maxrss
}

// launchArg makes this binary a launcher: it runs the command that
// follows, waits for it, and writes the command's wall time and
// ru_maxrss to file descriptor 3. Linux charges a new process's
// ru_maxrss with the RSS of the process it was spawned from, so the
// cafa binaries are spawned from this small launcher rather than from
// the benchmark process, which holds every generated trace.
const launchArg = "-launch"

// childProcs is the GOMAXPROCS of every measured cafa child. A child
// that runs goroutines on both vCPUs of a shared host times how much of
// the second vCPU the host lends it at that moment, which swings its
// wall time by up to half from one run to the next; on one P the same
// child repeats within about 1%. The numbers are the serial cost of
// the work, which is what the ROADMAP's algorithmic changes move.
const childProcs = 1

// launched is a started launcher and the read end of its report pipe.
type launched struct {
	cmd    *exec.Cmd
	report *os.File
}

// launch starts bin with args in dir under a launcher.
func launch(ctx context.Context, bin, dir string, stdout, stderr io.Writer, args ...string) (*launched, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{launchArg, bin}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.ExtraFiles = []*os.File{w}
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		return nil, err
	}
	return &launched{cmd: cmd, report: r}, nil
}

// wait waits for the launcher and returns what it measured.
func (l *launched) wait() (wall time.Duration, maxRSS int64, err error) {
	raw, rerr := io.ReadAll(l.report)
	l.report.Close()
	err = l.cmd.Wait()
	var ns int64
	if _, serr := fmt.Sscan(string(raw), &ns, &maxRSS); serr != nil && err == nil {
		err = fmt.Errorf("launcher report %q: %v %v", raw, serr, rerr)
	}
	return time.Duration(ns), maxRSS, err
}

// runLauncher is the launcher's main: it runs args, forwards SIGTERM
// and SIGINT to it, and reports on file descriptor 3. The child dies
// with the launcher, so a killed benchmark leaves no process behind.
func runLauncher(args []string) int {
	syscall.CloseOnExec(3)
	report := os.NewFile(3, "report")
	// Pdeathsig follows the thread that started the child.
	runtime.LockOSThread()
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "launcher: %v\n", err)
		return 127
	}
	go func() {
		for s := range sigs {
			_ = cmd.Process.Signal(s)
		}
	}()
	_ = cmd.Wait()
	wall := time.Since(t0)
	fmt.Fprintf(report, "%d %d\n", wall.Nanoseconds(), cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss)
	report.Close()
	if code := cmd.ProcessState.ExitCode(); code >= 0 {
		return code
	}
	return 1
}

// runAnalyze runs cafa-analyze with args in dir and waits for it.
func runAnalyze(ctx context.Context, bin, dir string, args ...string) (childRun, error) {
	var stdout, stderr bytes.Buffer
	l, err := launch(ctx, bin, dir, &stdout, &stderr, args...)
	if err != nil {
		return childRun{}, fmt.Errorf("cafa-analyze: %w", err)
	}
	wall, rss, err := l.wait()
	run := childRun{stdout: stdout.Bytes(), wall: wall, maxRSS: rss}
	if err != nil {
		return run, fmt.Errorf("cafa-analyze %s: %w: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return run, nil
}

// server is a running cafa-serve child.
type server struct {
	l      *launched
	base   string
	stderr *addrWriter
}

// startServer starts cafa-serve in its default configuration on a
// free loopback port and returns once /healthz answers.
func startServer(ctx context.Context, bin, dir string) (*server, error) {
	aw := &addrWriter{found: make(chan string, 1)}
	l, err := launch(ctx, bin, dir, nil, aw, "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cafa-serve: %w", err)
	}
	s := &server{l: l, stderr: aw}
	select {
	case addr := <-aw.found:
		s.base = "http://" + addr
	case <-time.After(10 * time.Second):
		s.kill()
		return nil, fmt.Errorf("cafa-serve did not report its address: %s", aw.text())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("cafa-serve /healthz did not answer: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, waits for it to exit, and
// returns its peak RSS in KiB.
func (s *server) stop() (int64, error) {
	if err := s.l.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, fmt.Errorf("cafa-serve: signal: %w", err)
	}
	type outcome struct {
		rss int64
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, rss, err := s.l.wait()
		done <- outcome{rss, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			return o.rss, fmt.Errorf("cafa-serve drain: %w: %s", o.err, s.stderr.text())
		}
		return o.rss, nil
	case <-time.After(60 * time.Second):
		_ = s.l.cmd.Process.Kill()
		<-done
		return 0, fmt.Errorf("cafa-serve did not drain within 60s")
	}
}

// kill stops the server at once and waits for it.
func (s *server) kill() {
	_ = s.l.cmd.Process.Kill()
	_, _, _ = s.l.wait()
}

// addrWriter collects cafa-serve's log and reports the address from
// its "listening on" line.
type addrWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan string
	sent  bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "listening on "
		if _, rest, ok := strings.Cut(w.buf.String(), marker); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				w.found <- addr
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(w.buf.String())
}
