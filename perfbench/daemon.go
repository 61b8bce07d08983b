package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one tdxd process started by the benchmark, always with
// -state (every snapshot is fsynced).
type daemon struct {
	cmd    *exec.Cmd
	addr   string // host:port of the HTTP listener
	state  string
	args   []string
	log    *os.File
	exited chan struct{}
	err    error // the process's exit status, set before exited closes
}

// freePort asks the kernel for an unused loopback port.
func freePort(network string) (int, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		return c.LocalAddr().(*net.UDPAddr).Port, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots a standalone tdxd on a fresh loopback port with its
// state under the given directory.
func (b *bench) startDaemon(name, state string) (*daemon, error) {
	port, err := freePort("tcp")
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	return b.launch(name, addr, state, []string{"-addr", addr, "-state", state})
}

// restart boots a new process with the arguments and state directory
// of d, which must have exited.
func (b *bench) restart(name string, d *daemon) (*daemon, error) {
	return b.launch(name, d.addr, d.state, d.args)
}

// launch starts tdxd with args and waits until /healthz answers on addr.
// The daemon's output goes to a log in the run's scratch directory.
func (b *bench) launch(name, addr, state string, args []string) (*daemon, error) {
	if b.tdxd == "" {
		return nil, errors.New("no tdxd binary given (-tdxd)")
	}
	logFile, err := os.OpenFile(filepath.Join(b.work, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.tdxd, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, state: state, args: args, log: logFile, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			logFile.Close()
			out, _ := os.ReadFile(logFile.Name())
			return nil, fmt.Errorf("%s exited during boot: %v: %s", name, d.err, out[max(0, len(out)-500):])
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("%s did not answer /healthz within 30s", name)
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// kill SIGKILLs the process and waits for it to end.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
	d.log.Close()
}

// newClient returns an HTTP client holding at most nproc connections
// per daemon.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status  int
	body    []byte
	ttfb    time.Duration // until the response head arrived
	total   time.Duration // until the body was read
	chunked bool
}

// post sends one request and reads the whole response. A transport
// error or a non-2xx status is an error.
func post(c *http.Client, url, ctype string, body []byte) (reply, error) {
	var r reply
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return r, err
	}
	r.ttfb = time.Since(t0)
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.total = time.Since(t0)
	r.status = resp.StatusCode
	r.chunked = resp.ContentLength < 0
	if err != nil {
		return r, err
	}
	if r.status/100 != 2 {
		return r, fmt.Errorf("POST %s: status %d: %.200s", url, r.status, r.body)
	}
	return r, nil
}

func del(c *http.Client, url string) error {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("DELETE %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// scrape reads the daemon's Prometheus counters.
func (d *daemon) scrape(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// scrapeAll sums the tdxd counters of several daemons.
func scrapeAll(c *http.Client, nodes []*daemon) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, n := range nodes {
		m, err := n.scrape(c)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			if strings.HasPrefix(k, "tdxd_") {
				sum[k] += v
			}
		}
	}
	return sum, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 100

// procCPU returns the user+system CPU time the process has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField reads one "Key: value" line of a /proc file as a number.
func procField(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return kb / 1024, err
}

// resetPeakRSS sets the process's VmHWM back to its current resident
// size, so a later peakRSSMB covers only what ran after the call.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// writeBytes is the byte count the process has caused to be written to
// storage.
func writeBytes(pid int) (float64, error) {
	return procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes")
}
