package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB reads a process's peak resident set (VmHWM) from procfs.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// resetPeakRSS collects the heap, returns the freed pages to the kernel
// and resets this process's VmHWM, so that the next peakRSSMB("self")
// reads the peak of what ran since, started from a collected heap.
// Without it the peak depends on where the GC's cycles happened to fall
// around the largest simplex tableaus.
func resetPeakRSS() error {
	debug.FreeOSMemory() // runs a collection first
	// "5" resets the peak resident set (Linux 4.0 and later).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuSeconds reads a process's user plus system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis start at field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// server is a running pdwd child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	tail []string      // last stderr lines, for failure reports
}

// startServer launches pdwd on a kernel-chosen loopback port and waits
// until it logs the address it listens on.
func startServer(path string) (*server, error) {
	if path == "" {
		return nil, errors.New("service-mix needs -pdwd")
	}
	cmd := exec.Command(path, "-listen", "127.0.0.1:0")
	// Should the benchmark die without stopping it, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pdwd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent {
				var l struct{ Msg, Addr string }
				if json.Unmarshal([]byte(line), &l) == nil && l.Msg == "listening" {
					addrc <- l.Addr
					sent = true
				}
			}
			if len(s.tail) == 20 {
				s.tail = s.tail[1:]
			}
			s.tail = append(s.tail, line)
		}
		_, _ = io.Copy(io.Discard, stderr) // a line longer than the scanner's buffer
		_ = cmd.Wait()                     // the exit status is reported by stop
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("pdwd exited before listening: %s", strings.Join(s.tail, "\n"))
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("pdwd did not start listening within 30s")
	}
}

// stop asks pdwd to shut down gracefully, kills it if it has not
// exited within ten seconds, and returns once it has been waited for.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}
