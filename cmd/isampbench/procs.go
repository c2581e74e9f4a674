package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// buildDaemons compiles cmd/isampd and cmd/isampfleet from the tree
// under test into dir, before any timing starts.
func buildDaemons(ctx context.Context, root, dir string) error {
	for _, name := range []string{"isampd", "isampfleet"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	return nil
}

// daemon is one started isampd or isampfleet process.
type daemon struct {
	name, url, logPath string
	cmd                *exec.Cmd
	exited             chan struct{} // closed once Wait returned
}

// children owns every process a run starts, so that any exit path can
// stop them all.
type children struct {
	mu    sync.Mutex
	procs []*daemon
}

// start launches bin with args on a port the benchmark picks and waits
// until ready(healthz document) holds. A port lost to another process
// between picking and binding is retried.
func (c *children) start(ctx context.Context, dir, name, bin string, ready func(map[string]any) bool, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + port
		d, err := c.launch(dir, name, bin, addr, append(args, "-addr", addr))
		if err != nil {
			return nil, err
		}
		if lastErr = d.waitReady(ctx, ready); lastErr == nil {
			return d, nil
		}
		c.stop(d)
	}
	return nil, lastErr
}

func (c *children) launch(dir, name, bin, addr string, args []string) (*daemon, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	setParentDeathSignal(cmd)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, logPath: logPath, cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		logf.Close()
		close(d.exited)
	}()
	c.mu.Lock()
	c.procs = append(c.procs, d)
	c.mu.Unlock()
	return d, nil
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}

// waitReady polls /healthz until ready accepts the document.
func (d *daemon) waitReady(ctx context.Context, ready func(map[string]any) bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			log, _ := os.ReadFile(d.logPath)
			return fmt.Errorf("%s exited during start-up: %s", d.name, log)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		var doc map[string]any
		if err := getJSON(ctx, d.url+"/healthz", &doc); err == nil && ready(doc) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 20s", d.name)
}

// stop sends SIGTERM (the daemons' graceful drain), escalates to
// SIGKILL after 10 s, waits for the exit and returns the process's peak
// resident set size in MiB.
func (c *children) stop(d *daemon) float64 {
	select {
	case <-d.exited:
	default:
		// A pooled connection that never carried a request holds the
		// daemon's HTTP shutdown open for 5 s; close them first.
		client.CloseIdleConnections()
		d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exiting
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck // already exited
			<-d.exited
		}
	}
	c.mu.Lock()
	for i, p := range c.procs {
		if p == d {
			c.procs = append(c.procs[:i], c.procs[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// stopAll stops every live child, newest first: a fleet coordinator
// goes before the workers whose event streams it holds open.
func (c *children) stopAll() {
	c.mu.Lock()
	procs := append([]*daemon(nil), c.procs...)
	c.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		c.stop(procs[i])
	}
}

var client = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
	Timeout:   60 * time.Second,
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
