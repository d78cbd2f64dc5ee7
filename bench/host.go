package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
)

// A host starts deployments of the system under test: real pd2d and
// pd2cluster processes (procHost) or the same layers in this process
// (memHost).
type host interface {
	// start brings a workload's deployment up with an empty state. A
	// node deployment snapshots into snapDir when stopped gracefully.
	start(w *Workload, snapDir string) (deployment, error)
	// restore starts one pd2d from the shard snapshots in snapDir.
	restore(w *Workload, snapDir string) (deployment, error)
	// reference starts the bare-HTTP reference server (reference.go).
	reference() (deployment, error)
}

// A deployment is one running copy of the system.
type deployment interface {
	addr() string // host:port serving the workload's shards (the primary)
	// stop shuts the system down. Graceful stops let a node write its
	// snapshots; the others end it as fast as possible.
	stop(graceful bool) error
	// memory reports the processes' peak resident set in MiB and their
	// Go runtime statistics.
	memory() (memStats, error)
}

// memStats is the memory and GC state of a deployment's processes,
// summed over them.
type memStats struct {
	peakRSSMB   float64
	gcCycles    float64
	gcPauseMS   float64
	heapInuseMB float64
	liveHeapMB  float64 // heap after forced collections
}

// httpClient serves set-up, drain, checks and snapshots, never the load.
var httpClient = &http.Client{Timeout: 60 * time.Second}

// Ports for the child processes come from [portLo, portHi), walked in
// order from a random start and checked free by a listen. A port the
// kernel hands out for port 0 lies in its ephemeral range, and between
// its release here and the child's bind any outgoing connection may
// take it as its local port (one cluster set-up in about a thousand
// failed so); no connection takes a port below that range.
const portLo, portHi = 20000, 32000

var ports struct {
	sync.Mutex
	next    int  // offset into the range of the next port to try
	started bool // next holds its random start
}

// freeAddr reserves a loopback port for a child process to bind. Where
// the ephemeral range reaches below portHi it falls back to port 0.
func freeAddr() (string, error) {
	if lo, err := ephemeralLow(); err != nil || lo < portHi {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := l.Addr().String()
		return addr, l.Close()
	}
	ports.Lock()
	defer ports.Unlock()
	if !ports.started {
		ports.next, ports.started = rand.IntN(portHi-portLo), true
	}
	for tries := 0; tries < portHi-portLo; tries++ {
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(portLo+ports.next))
		ports.next = (ports.next + 1) % (portHi - portLo)
		if l, err := net.Listen("tcp", addr); err == nil {
			return addr, l.Close()
		}
	}
	return "", fmt.Errorf("no free port in [%d, %d)", portLo, portHi)
}

// ephemeralLow is the low end of the kernel's ephemeral port range.
func ephemeralLow() (int, error) {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) != 2 {
		return 0, fmt.Errorf("ip_local_port_range: %q", b)
	}
	return strconv.Atoi(f[0])
}

// errExited ends a wait at once: what it waited for cannot happen.
type errExited struct{ error }

// waitFor polls fn every millisecond until it succeeds, fails with
// errExited, or the deadline passes.
func waitFor(what string, d time.Duration, fn func() error) error {
	deadline := time.Now().Add(d)
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if errors.As(err, new(errExited)) || time.Now().After(deadline) {
			return fmt.Errorf("%s: %w", what, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func getOK(url string) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// getJSON fetches url into v; any status but 200 is an error.
func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON posts body and returns the reply; any status but 200 is an
// error.
func postJSON(url string, body []byte) ([]byte, error) {
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %.300s", url, resp.Status, b)
	}
	return b, nil
}

// clusterPrimary waits for the coordinator's initial placement and for
// the primary of shard 0 to hold the table, and returns the primary's
// host:port and ID.
func clusterPrimary(coord string) (addr, id string, err error) {
	var tab cluster.RouteTable
	err = waitFor("cluster placement", 30*time.Second, func() error {
		return getJSON("http://"+coord+"/v1/cluster/route", &tab)
	})
	if err != nil {
		return "", "", err
	}
	base, err := tab.PrimaryBase(0)
	if err != nil {
		return "", "", err
	}
	err = waitFor("primary route table", 30*time.Second, func() error {
		return getOK(base + "/v1/cluster/route")
	})
	return strings.TrimPrefix(base, "http://"), tab.Shards[0].Primary, err
}

// procStatus reads one field (in kB) of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			v = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB"))
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// heapStats scrapes a daemon's Go runtime statistics from the runtime
// section of /debug/pprof/heap?debug=1. PauseNs holds the last 256
// pauses, so gc.pause_ms is exact up to 256 collections. With collect,
// the daemon runs a full collection first, so HeapAlloc is its live
// heap.
func heapStats(base string, collect bool) (memStats, error) {
	url := base + "/debug/pprof/heap?debug=1"
	if collect {
		url += "&gc=1"
	}
	resp, err := httpClient.Get(url)
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	var ms memStats
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# NumGC = "):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "# NumGC = "), 64)
			if err != nil {
				return memStats{}, err
			}
			ms.gcCycles = v
			found++
		case strings.HasPrefix(line, "# HeapInuse = "):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "# HeapInuse = "), 64)
			if err != nil {
				return memStats{}, err
			}
			ms.heapInuseMB = v / (1 << 20)
			found++
		case strings.HasPrefix(line, "# HeapAlloc = "):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "# HeapAlloc = "), 64)
			if err != nil {
				return memStats{}, err
			}
			ms.liveHeapMB = v / (1 << 20)
			found++
		case strings.HasPrefix(line, "# PauseNs = ["):
			var total float64
			for _, f := range strings.Fields(strings.Trim(strings.TrimPrefix(line, "# PauseNs = "), "[]")) {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return memStats{}, err
				}
				total += v
			}
			ms.gcPauseMS = total / 1e6
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return memStats{}, err
	}
	if found != 4 {
		return memStats{}, errors.New("heap profile lacks the runtime.MemStats section")
	}
	return ms, nil
}

// snapshotFile names shard i's snapshot file, as pd2d does.
func snapshotFile(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.json", shard))
}
