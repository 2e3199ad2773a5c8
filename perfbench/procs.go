package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// dieWithParent has the kernel kill a child if the benchmark itself
// dies, so no server outlives a crashed run.
var dieWithParent = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// server is one running pipeserve process.
type server struct {
	cmd     *exec.Cmd
	base    string
	logDone chan struct{}
}

// startServer launches pipeserve on an ephemeral loopback port and
// returns once it has printed the address it listens on. Its log goes to
// logPath.
func startServer(bin, logPath string, args ...string) (*server, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(filepath.Join(bin, "pipeserve"), args...)
	cmd.SysProcAttr = dieWithParent
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start pipeserve: %w", err)
	}
	s := &server{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("pipeserve exited before listening; see %s", logPath)
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(120 * time.Second):
		s.stop()
		return nil, fmt.Errorf("pipeserve did not listen within 120s; see %s", logPath)
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after a
// grace period) and returns its peak resident set in MiB.
func (s *server) stop() (peakMB float64, err error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(30*time.Second, func() { _ = s.cmd.Process.Kill() })
	<-s.logDone
	werr := s.cmd.Wait()
	timer.Stop()
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if werr != nil {
		return peakMB, fmt.Errorf("pipeserve exit: %w", werr)
	}
	return peakMB, nil
}

// runTool runs one of the repository's commands to completion and
// returns its standard output; stderr is folded into the error.
func runTool(bin, name string, args ...string) ([]byte, *os.ProcessState, error) {
	cmd := exec.Command(filepath.Join(bin, name), args...)
	cmd.SysProcAttr = dieWithParent
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, cmd.ProcessState, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.Bytes(), cmd.ProcessState, nil
}

// generate writes region at scale as a PCOL dataset into dir.
func generate(bin, region string, seed int64, scale float64, dir string) error {
	_, _, err := runTool(bin, "pipegen", "-region", region, "-seed", fmt.Sprint(seed),
		"-scale", fmt.Sprint(scale), "-format", "col", "-out", dir)
	return err
}

// call sends one request and returns status and body.
func call(c *http.Client, method, url string, body []byte, ctype string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// callOK is call that also requires a 200 and decodes a JSON body into v
// when v is non-nil.
func callOK(c *http.Client, method, url string, body []byte, v any) ([]byte, http.Header, error) {
	status, hdr, data, err := call(c, method, url, body, "")
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("%s %s: status %d: %.300s", method, url, status, data)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			return nil, nil, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return data, hdr, nil
}

// waitReady polls /readyz until the server answers 200.
func waitReady(c *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, _, _, err := call(c, http.MethodGet, base+"/readyz", nil, "")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %s (last status %d, err %v)", base, timeout, status, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrape reads the server's /metrics snapshot.
func scrape(c *http.Client, base string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	_, _, err := callOK(c, http.MethodGet, base+"/metrics", nil, &snap)
	return snap, err
}

// counterDelta sums, over every counter whose name has the prefix and
// suffix, its growth from a to b.
func counterDelta(a, b obs.Snapshot, prefix, suffix string) float64 {
	var d int64
	for name, v := range b.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			d += v - a.Counters[name]
		}
	}
	return float64(d)
}

// gaugeSum sums every gauge with the prefix and suffix in s.
func gaugeSum(s obs.Snapshot, prefix, suffix string) float64 {
	var t float64
	for name, v := range s.Gauges {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			t += v
		}
	}
	return t
}
