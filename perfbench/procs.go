package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat (100 on every mainstream Linux build).
const clockTicks = 100

// startTimeout bounds how long a server may take to print its address
// and report ready.
const startTimeout = 120 * time.Second

// listenLine matches the servers' bound-address log lines:
// "serving predictions on ADDR" and "routing N replicas on ADDR".
var listenLine = regexp.MustCompile(`(?:serving predictions|routing \d+ replicas) on (127\.0\.0\.1:\d+)`)

// proc is one server child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped

	mu   sync.Mutex
	tail []string // last log lines, for failure reports
}

// procSet owns every child the benchmark starts, so that all of them
// are killed and reaped on success, failure and interrupt alike.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// start launches a server bound to 127.0.0.1:0 and waits until its log
// names the bound address and /readyz answers 200.
func (ps *procSet) start(ctx context.Context, name, bin string, procs int, args ...string) (*proc, error) {
	p := &proc{name: name, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// Own process group, and killed with the benchmark should it die
	// without running its cleanup.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		_ = p.cmd.Wait()
		close(p.done)
	}()

	deadline := time.NewTimer(startTimeout)
	defer deadline.Stop()
	select {
	case p.addr = <-addrc:
	case <-p.done:
		return nil, p.failed("exited before listening")
	case <-deadline.C:
		return nil, p.failed("printed no listen address")
	case <-ctx.Done():
		return nil, fmt.Errorf("%s: interrupted while starting: %w", name, ctx.Err())
	}
	for {
		resp, err := http.Get(p.url() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return nil, p.failed("exited before ready")
		case <-deadline.C:
			return nil, p.failed("never became ready")
		case <-ctx.Done():
			return nil, fmt.Errorf("%s: interrupted while waiting for ready: %w", name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (p *proc) url() string { return "http://" + p.addr }

// failed renders a start-up failure with the process's last log lines.
func (p *proc) failed(what string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Errorf("%s %s; last log lines:\n  %s", p.name, what, strings.Join(p.tail, "\n  "))
}

// alive reports an error naming the process if it has exited.
func (p *proc) alive() error {
	select {
	case <-p.done:
		return p.failed("exited unexpectedly")
	default:
		return nil
	}
}

// stopAll kills and reaps every child started so far.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	for _, p := range procs {
		<-p.done
	}
}

// cpuSeconds returns the user plus system CPU time the process has used.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat line", p.name)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: bad /proc stat times %q %q", p.name, f[11], f[12])
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: bad VmHWM %q", p.name, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// tier is one started serving topology: the processes and the URL the
// load goes to.
type tier struct {
	procs []*proc
	url   string
}

func (t *tier) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range t.procs {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func (t *tier) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range t.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

func (t *tier) alive() error {
	for _, p := range t.procs {
		if err := p.alive(); err != nil {
			return err
		}
	}
	return nil
}

// startTier launches the workload's topology: one varserve, or for
// cluster_mixed two replicas (started together) behind varroute.
func (ps *procSet) startTier(ctx context.Context, workload, binDir string, procs int) (*tier, error) {
	campaign := []string{"-runs", strconv.Itoa(campaignRuns), "-seed", strconv.FormatUint(campaignSeed, 10)}
	varserve := binDir + "/varserve"
	if workload != wlCluster {
		p, err := ps.start(ctx, "varserve", varserve, procs, campaign...)
		if err != nil {
			return nil, err
		}
		return &tier{procs: []*proc{p}, url: p.url()}, nil
	}
	reps := make([]*proc, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("replica-%d", i)
			reps[i], errs[i] = ps.start(ctx, "varserve "+id, varserve, procs, append([]string{"-replica", id}, campaign...)...)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	router, err := ps.start(ctx, "varroute", binDir+"/varroute", procs,
		"-replicas", reps[0].url()+","+reps[1].url())
	if err != nil {
		return nil, err
	}
	return &tier{procs: append(reps, router), url: router.url()}, nil
}

// hostTicks reads the machine-wide CPU line of /proc/stat: the ticks the
// hypervisor stole from this guest's CPUs and all ticks counted. It
// returns zeros where the file cannot be read.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
