package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyPoll is how often spawn looks for the portfile and readiness:
// fine enough not to quantize a set-up time of a few milliseconds.
const readyPoll = 250 * time.Microsecond

// proc is one spawned daemon (projfreqd or projfreq-router).
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{}
	err  error
}

// URL is the daemon's base URL.
func (p *proc) URL() string { return "http://" + p.addr }

// spawn starts bin with args plus a loopback listen address and a
// portfile in dir, and waits until the daemon answers GET path with
// 200. Its output goes to dir/<name>.log.
func spawn(dir, name, bin string, readyPath string, args ...string) (*proc, error) {
	portfile := filepath.Join(dir, name+".port")
	_ = os.Remove(portfile)
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-portfile", portfile}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark itself
	// is killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(portfile); err == nil && len(b) > 0 {
			p.addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case <-p.done:
			logf.Close()
			return nil, fmt.Errorf("%s exited before listening: %v (see %s)", name, p.err, logf.Name())
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s did not write its portfile", name)
		}
	}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		resp, err := probe.Get(p.URL() + readyPath)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s not ready at %s: %v", name, readyPath, err)
		}
		time.Sleep(readyPoll)
	}
}

// stop kills the daemon and returns once it has exited. A trial's data
// directory is discarded afterwards, so the graceful shutdown (and a
// durable daemon's shutdown checkpoint, tens of megabytes of disk
// writes that would disturb the next trial) buys nothing.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
}

// procStatus reads fields of /proc/<pid>/status.
func (p *proc) procStatus() map[string]string {
	out := map[string]string{}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok {
			out[k] = strings.TrimSpace(v)
		}
	}
	return out
}

// gomaxprocs is the GOMAXPROCS the Go runtime picked for the process:
// the GOMAXPROCS environment variable when set, otherwise the number
// of CPUs in its affinity mask (what Go 1.24 uses).
func (p *proc) gomaxprocs() int {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		n, _ := strconv.Atoi(v)
		return n
	}
	return cpuListLen(p.procStatus()["Cpus_allowed_list"])
}

// cpuListLen counts the CPUs in a list such as "0-3,6".
func cpuListLen(list string) int {
	n := 0
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// stopAll stops every process concurrently and waits for all of them.
func stopAll(ps []*proc) {
	done := make(chan struct{}, len(ps))
	for _, p := range ps {
		go func(p *proc) {
			p.stop()
			done <- struct{}{}
		}(p)
	}
	for range ps {
		<-done
	}
}

// cpuTimes reads the aggregate CPU line of /proc/stat: total ticks and
// the ticks stolen by the hypervisor for other guests.
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseUint(x, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealShare is the share of CPU time stolen from this host between two
// cpuTimes readings.
func stealShare(t0, s0, t1, s1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}
