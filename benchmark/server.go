package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"godisc/internal/fleet"
	"godisc/internal/graph"
	"godisc/internal/models"
)

// moduleRoot finds the checkout: the nearest directory at or above the
// working directory that holds go.mod (`go run ./benchmark` starts in it,
// `go test ./benchmark` one level below).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory: not a checkout of the repository")
		}
		dir = parent
	}
}

// buildDir holds everything a run leaves behind except benchmark/out (the
// discserve binary, model repositories, engine-cache directories); it sits
// in the checkout so the benchmark never writes outside it.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildServer compiles cmd/discserve — the program under test — and
// returns the binary's path and how long the build took. The build is off
// every clock the benchmark reports as an end-to-end metric.
func buildServer(root string) (bin string, seconds float64, err error) {
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return "", 0, err
	}
	bin = filepath.Join(buildDir(root), "discserve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/discserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building discserve: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// writeRepo lays the named zoo models out as a fleet model repository
// (<dir>/<model>/1/model.graph) and returns each model's graph text — the
// text the reference evaluator parses on its own.
func writeRepo(dir string, names []string) (map[string]string, error) {
	texts := map[string]string{}
	for _, name := range names {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		text := graph.WriteText(m.Build())
		vdir := filepath.Join(dir, name, "1")
		if err := os.MkdirAll(vdir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(vdir, fleet.GraphFileName), []byte(text), 0o644); err != nil {
			return nil, err
		}
		texts[name] = text
	}
	return texts, nil
}

// server is one running discserve process.
type server struct {
	cmd     *exec.Cmd
	base    string // "http://127.0.0.1:port"
	cmdline []string
	started time.Time
	stderr  *bytes.Buffer
	exited  chan struct{}
}

var readyLine = regexp.MustCompile(`on (http://[0-9.]+:[0-9]+) `)

// startServer launches `discserve -serve 127.0.0.1:0 -model-repo repo`
// with otherwise default flags (plus extra, which only model_churn uses for
// -cache-dir) and waits for the line announcing the listen address.
func startServer(bin, repo string, extra ...string) (*server, error) {
	args := append([]string{"-serve", "127.0.0.1:0", "-model-repo", repo}, extra...)
	s := &server{
		cmd:     exec.Command(bin, args...),
		cmdline: append([]string{filepath.Base(bin)}, args...),
		stderr:  &bytes.Buffer{},
		exited:  make(chan struct{}),
	}
	s.cmd.Stderr = s.stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan string, 1)
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := readyLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case ready <- m[1]:
				default:
				}
			}
		}
		_ = s.cmd.Wait()
	}()
	select {
	case s.base = <-ready:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("discserve exited before it was ready: %s", s.stderr)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("discserve not ready after 60s: %s", s.stderr)
	}
}

// stop asks the server to drain (SIGTERM), waits for it to exit and kills
// it if it does not. It returns only once the process has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpuSeconds reads the server's user+system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	return procCPUSeconds(s.cmd.Process.Pid)
}

// procCPUSeconds parses utime+stime (fields 14 and 15) of /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable cpu times in /proc/%d/stat", pid)
	}
	const clockTicksPerSecond = 100 // USER_HZ on every Linux ABI Go supports
	return (utime + stime) / clockTicksPerSecond, nil
}

// rssPeakMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// scrape fetches and parses the server's /metrics.
func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(string(body))
}
