package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemonBin is the compiled binary every process-level test execs, built
// once in TestMain (a per-test TempDir would vanish when its test ends).
var daemonBin string
var buildErr error

func TestMain(m *testing.M) {
	func() {
		gobin, err := exec.LookPath("go")
		if err != nil {
			buildErr = fmt.Errorf("no go binary in PATH")
			return
		}
		dir, err := os.MkdirTemp("", "atcsimd-test")
		if err != nil {
			buildErr = err
			return
		}
		defer func() {
			if buildErr != nil {
				os.RemoveAll(dir)
			}
		}()
		daemonBin = filepath.Join(dir, "atcsimd")
		if out, err := exec.Command(gobin, "build", "-o", daemonBin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	}()
	code := m.Run()
	if daemonBin != "" {
		os.RemoveAll(filepath.Dir(daemonBin))
	}
	os.Exit(code)
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	if buildErr != nil {
		t.Skip(buildErr.Error())
	}
	return daemonBin
}

var addrRe = regexp.MustCompile(`msg=listening addr=([0-9.]+:[0-9]+)`)

// daemon is one running atcsimd process under test.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *syncBuffer
	eof    chan struct{} // closed once stderr has been read to the end
}

// wait reaps the daemon after its stderr has been read to the end:
// exec.Cmd.Wait closes the pipe, so calling it first can drop the final
// log lines.
func (d *daemon) wait() error {
	<-d.eof
	return d.cmd.Wait()
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon boots atcsimd on a free port and waits for readiness.
func startDaemon(t *testing.T, bin string, extraArgs ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-scale", "quick", "-jobs", "2"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &syncBuffer{}, eof: make(chan struct{})}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	// Read stderr on a goroutine (into the buffer) while scanning for the
	// listening line.
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.Write([]byte(line + "\n"))
			select {
			case lines <- line:
			default:
			}
		}
		close(lines)
		close(d.eof)
	}()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("daemon exited before listening:\n%s", d.stderr.String())
			}
			if m := addrRe.FindStringSubmatch(line); m != nil {
				d.addr = m[1]
			}
		case <-deadline:
			t.Fatalf("daemon never printed listening line:\n%s", d.stderr.String())
		}
		if d.addr != "" {
			break
		}
	}
	// Wait for readiness.
	readyDeadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(readyDeadline) {
			t.Fatalf("daemon never became ready:\n%s", d.stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runResponse mirrors simserver.RunResponse for decoding.
type runResponse struct {
	Key    string          `json:"key"`
	Kind   string          `json:"kind"`
	Source string          `json:"source"`
	Result json.RawMessage `json:"result"`
}

func (d *daemon) post(t *testing.T, body string) (int, runResponse) {
	t.Helper()
	resp, err := http.Post("http://"+d.addr+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var rr runResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, &rr); err != nil {
			t.Fatalf("decode %s: %v", payload, err)
		}
	}
	return resp.StatusCode, rr
}

// TestServeRunAndGracefulShutdown boots the daemon, runs one simulation
// twice (computed then shared, byte-identical), then SIGTERMs it and
// asserts a clean drain: exit 0 and the drained log line.
func TestServeRunAndGracefulShutdown(t *testing.T) {
	bin := buildDaemon(t)
	dir := t.TempDir()
	d := startDaemon(t, bin, "-cache-dir", dir)

	const body = `{"workload":"pr","seed":1,"enhancement":"tempo"}`
	status, first := d.post(t, body)
	if status != http.StatusOK {
		t.Fatalf("first run: status %d", status)
	}
	if first.Source != "computed" {
		t.Errorf("first run source = %q, want computed", first.Source)
	}
	status, second := d.post(t, body)
	if status != http.StatusOK {
		t.Fatalf("second run: status %d", status)
	}
	if second.Source != "shared" {
		t.Errorf("second run source = %q, want shared", second.Source)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Error("repeat response not byte-identical")
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(); err != nil {
		t.Errorf("SIGTERM drain exited non-zero: %v\n%s", err, d.stderr.String())
	}
	logs := d.stderr.String()
	for _, want := range []string{"msg=\"shutting down\"", "signal=terminated", "msg=drained"} {
		if !strings.Contains(logs, want) {
			t.Errorf("drain logs lack %q:\n%s", want, logs)
		}
	}
}

// TestKillAndResumeNoTornEntries is the crash-safety acceptance gate at
// process level: populate the cache, SIGKILL the daemon (no drain at all),
// restart on the same cache directory, and require every result to come
// back from disk byte-identically with zero torn or quarantined entries.
func TestKillAndResumeNoTornEntries(t *testing.T) {
	bin := buildDaemon(t)
	dir := t.TempDir()
	d := startDaemon(t, bin, "-cache-dir", dir)

	bodies := []string{
		`{"workload":"xalancbmk","seed":1}`,
		`{"workload":"mcf","seed":1}`,
		`{"workload":"pr","seed":1,"enhancement":"tempo"}`,
	}
	cold := make(map[string]runResponse)
	for _, body := range bodies {
		status, rr := d.post(t, body)
		if status != http.StatusOK {
			t.Fatalf("cold run %s: status %d", body, status)
		}
		cold[body] = rr
	}

	// SIGKILL: no drain, no cleanup — the crash-safe store must cope.
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.wait()

	if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) != 0 {
		t.Errorf("quarantine files after SIGKILL: %v", bad)
	}

	d2 := startDaemon(t, bin, "-cache-dir", dir)
	for _, body := range bodies {
		status, warm := d2.post(t, body)
		if status != http.StatusOK {
			t.Fatalf("warm run %s: status %d", body, status)
		}
		if warm.Source != "disk" {
			t.Errorf("warm run %s: source %q, want disk", body, warm.Source)
		}
		if warm.Key != cold[body].Key {
			t.Errorf("warm run %s: key changed %s → %s", body, cold[body].Key, warm.Key)
		}
		if !bytes.Equal(warm.Result, cold[body].Result) {
			t.Errorf("warm run %s: result not byte-identical to pre-kill", body)
		}
	}
	// The restart swept any stale temp files and trusted no torn entry.
	if tmp, _ := filepath.Glob(filepath.Join(dir, "entry-*.tmp")); len(tmp) != 0 {
		t.Errorf("stale temp files after restart: %v", tmp)
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) != 0 {
		t.Errorf("quarantined entries on restart: %v", bad)
	}
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.wait(); err != nil {
		t.Errorf("drain after resume exited non-zero: %v\n%s", err, d2.stderr.String())
	}
}

// TestUsageErrors asserts the CLI contract: unknown scale and positional
// arguments are usage errors (exit 2).
func TestUsageErrors(t *testing.T) {
	bin := buildDaemon(t)
	for _, args := range [][]string{
		{"-scale", "warp"},
		{"positional"},
		{"-log-level", "shout"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%v: err = %v, want non-zero exit; output:\n%s", args, err, out)
		}
		if code := ee.ExitCode(); code != 2 {
			t.Errorf("%v: exit code = %d, want 2\n%s", args, code, out)
		}
	}
}
