package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running directoryd process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

var addrLine = regexp.MustCompile(`on (http://[^/\s]+)/`)

// startServer execs directoryd and returns once /healthz answers 200,
// with the time from exec to that answer. The listen address is read
// from the "live directory (…) on http://ADDR/" line directoryd prints
// once it listens; stdout and stderr go to logf.
func startServer(bin string, args []string, logf *os.File) (*server, float64, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	// directoryd dies with the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = pw
	cmd.Stderr = logf
	s := &server{cmd: cmd, exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, 0, fmt.Errorf("start directoryd: %w", err)
	}
	pw.Close()
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	addrc := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if m := addrLine.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
	}()
	select {
	case s.base = <-addrc:
	case <-s.exited:
		return nil, 0, fmt.Errorf("directoryd exited before listening: %v (see %s)", s.err, logf.Name())
	case <-time.After(150 * time.Second):
		s.kill()
		return nil, 0, fmt.Errorf("directoryd did not listen within 150s")
	}
	c := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(60 * time.Second); ; {
		if code, _, err := get(c, s.base+"/healthz"); err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("directoryd /healthz not 200 within 60s of listening")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return s, time.Since(t0).Seconds(), nil
}

// stop sends sig and waits for the process to exit, escalating to
// SIGKILL after a minute.
func (s *server) stop(sig syscall.Signal) error {
	if err := s.cmd.Process.Signal(sig); err != nil {
		select {
		case <-s.exited:
			return nil
		default:
			return err
		}
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("directoryd ignored %v for 60s", sig)
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// cpuSeconds is the process's user+sys CPU time from /proc/PID/stat
// (fields 14 and 15, in USER_HZ = 100 ticks per second on Linux).
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return (ut + st) / 100, nil
}

// peakRSSMiB is VmHWM from /proc/PID/status.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// newClient is one keep-alive connection: every request of a load lane
// reuses it, so a run holds exactly one connection per lane.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

var (
	frontEntry   = regexp.MustCompile(`<li><a href="/cluster\?id=(\d+)">[^<]*</a> \((\d+) databases\)</li>`)
	clusterEntry = regexp.MustCompile(`<li><a href="([^"]*)">`)
)

// frontCounts parses the directory front page into per-cluster counts.
func frontCounts(body []byte) []int {
	var counts []int
	for _, m := range frontEntry.FindAllSubmatch(body, -1) {
		n, _ := strconv.Atoi(string(m[2]))
		counts = append(counts, n)
	}
	return counts
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// listing reads the served partition: the front page, then every
// /cluster?id= member listing.
func listing(c *http.Client, base string) ([][]string, error) {
	code, body, err := get(c, base+"/")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("front page: %d %v", code, err)
	}
	counts := frontCounts(body)
	out := make([][]string, len(counts))
	for i, want := range counts {
		code, body, err := get(c, fmt.Sprintf("%s/cluster?id=%d", base, i))
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("cluster %d: %d %v", i, code, err)
		}
		for _, m := range clusterEntry.FindAllSubmatch(body, -1) {
			out[i] = append(out[i], html.UnescapeString(string(m[1])))
		}
		if len(out[i]) != want {
			return nil, fmt.Errorf("cluster %d lists %d pages, front page says %d", i, len(out[i]), want)
		}
	}
	return out, nil
}

// liveStatus is the subset of directoryd's /status the benchmark reads.
type liveStatus struct {
	Epoch    int64
	Pages    int
	Rebuilds int64
}

func status(c *http.Client, base string) (liveStatus, error) {
	var st liveStatus
	code, body, err := get(c, base+"/status")
	if err != nil || code != http.StatusOK {
		return st, fmt.Errorf("/status: %d %v", code, err)
	}
	return st, json.Unmarshal(body, &st)
}
