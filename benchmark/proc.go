package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dpmg/internal/scenario"
)

// buildDir is where everything the benchmark writes lives: the server
// binary and each run's state, spool and store directories. It is relative
// to the working directory (the checkout root) and listed in .gitignore, so
// a run never writes outside its checkout or into tracked files.
const buildDir = ".bench_build"

// buildServer compiles cmd/dpmg-server from the checkout's own source.
// The go tool leaves an up-to-date binary alone, so only the first run in
// a checkout pays for the compile; the time is never part of setup_s.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "dpmg-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dpmg-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build dpmg-server: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves an ephemeral loopback port and returns its address.
// The listener closes before the server binds it; on loopback with
// kernel-chosen ports the window is negligible (cmd/dpmg-scenario makes
// the same trade).
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// live holds the servers currently running, so the watchdog can end them
// before it ends the benchmark.
var live = struct {
	sync.Mutex
	set map[*server]bool
}{set: make(map[*server]bool)}

// killLive kills every running server and waits for each to exit. It is the
// last resort of a run that has hung: the normal path is stop.
func killLive() {
	live.Lock()
	defer live.Unlock()
	for s := range live.set {
		s.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		s.cmd.Wait()         //nolint:errcheck // exit status is not a result
		fmt.Fprintf(os.Stderr, "--- server log ---\n%s\n", s.log)
	}
}

// server is one launched dpmg-server process.
type server struct {
	cmd *exec.Cmd
	log *bytes.Buffer
	// target holds the HTTP base URL and the framing ingest address.
	target scenario.Target
	// fanin is the root's -cluster-addr ("" for standalone servers).
	fanin string
	api   *scenario.Client
}

// launchServer starts a dpmg-server on fresh loopback ports with both
// datapaths open and waits until it answers. extra carries the role and
// state flags of the workload.
func launchServer(ctx context.Context, bin string, root bool, extra ...string) (*server, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	ingestAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", httpAddr, "-ingest-addr", ingestAddr, "-k", "256", "-d", strconv.Itoa(universe), "-shards", strconv.Itoa(shards)}
	s := &server{log: &bytes.Buffer{}, target: scenario.Target{BaseURL: "http://" + httpAddr, IngestAddr: ingestAddr}}
	if root {
		if s.fanin, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-role", "root", "-cluster-addr", s.fanin)
	}
	s.cmd = exec.Command(bin, append(args, extra...)...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dpmg-server: %w", err)
	}
	live.Lock()
	live.set[s] = true
	live.Unlock()
	s.api = scenario.NewClient(s.target.BaseURL)
	rctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := s.api.WaitReady(rctx); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w\n--- server log ---\n%s", err, s.log)
	}
	return s, nil
}

// stop ends the process: SIGTERM (the server drains and flushes), SIGKILL
// after a grace period, and in either case waits until it has exited.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	live.Lock()
	running := live.set[s]
	delete(live.set, s)
	live.Unlock()
	if !running {
		return
	}
	// Drop the generator's idle HTTP connections first. The server's graceful
	// shutdown waits up to 5 s for a connection that has not carried a request
	// yet (net/http's StateNew), and the transport's speculative dials leave
	// such connections behind; closed from this side they end at once.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }() //nolint:errcheck // exit status is not a result
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // last resort
		<-done
	}
}

// procUsage is what /proc says about a process: CPU consumed so far and the
// peak resident set.
type procUsage struct {
	cpu       time.Duration
	rssPeakMB float64
}

// clockTick is the kernel's USER_HZ; Linux has fixed it at 100 for every
// architecture Go supports, and /proc/<pid>/stat counts CPU in it.
const clockTick = 10 * time.Millisecond

// usage reads the server's utime+stime and VmHWM from /proc/<pid>. It must
// be called before stop: the files vanish with the process.
func (s *server) usage() (procUsage, error) {
	return readUsage(s.cmd.Process.Pid)
}

// readUsage reads /proc/<pid>/stat and /proc/<pid>/status.
func readUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	ticks, err := parseStatCPU(string(stat))
	if err != nil {
		return u, err
	}
	u.cpu = time.Duration(ticks) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return u, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			u.rssPeakMB = kb / 1024
		}
	}
	return u, nil
}

// parseStatCPU extracts utime+stime (clock ticks) from a /proc/<pid>/stat
// line. The command name may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in %q", stat)
	}
	return ut + st, nil
}

// selfCPU is the generator's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape fetches /metrics and sums every sample of each series name over
// its labels: the benchmark reads work counts as whole-server totals.
func (s *server) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.target.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining a failed reply
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition into per-name sums.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
