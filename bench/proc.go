package bench

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// procHost runs the real cmd/pd2d and cmd/pd2cluster binaries, each
// process logging to its own file under logDir. The reference server is
// this benchmark's own executable, run with ReferenceFlag.
type procHost struct {
	bin    string // directory holding pd2d and pd2cluster
	logDir string
	spawns int
}

// ReferenceFlag makes the benchmark's executable serve ReferenceHandler
// on the address that follows it; cmd/pd2bench implements it.
const ReferenceFlag = "-reference"

// procDeployment is a set of running processes.
type procDeployment struct {
	procs   []*exec.Cmd
	exited  []chan error // one per process, fed by its Wait
	nodes   []string     // pd2d base URLs, for the runtime statistics
	primary string
}

// spawn starts the program at path; name labels its log file.
func (h *procHost) spawn(d *procDeployment, name, path string, args ...string) error {
	h.spawns++
	logf, err := os.Create(filepath.Join(h.logDir, fmt.Sprintf("%s-%d.log", name, h.spawns)))
	if err != nil {
		return err
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemons must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting %s: %w", name, err)
	}
	exited := make(chan error, 1)
	go func() {
		exited <- cmd.Wait()
		logf.Close()
	}()
	d.procs = append(d.procs, cmd)
	d.exited = append(d.exited, exited)
	return nil
}

// engineFlags are the pd2d flags every deployment of w shares.
func engineFlags(w *Workload, addr string, shards int) []string {
	return []string{"-addr", addr, "-shards", strconv.Itoa(shards), "-m", strconv.Itoa(w.M), "-policy", w.Policy}
}

func (h *procHost) start(w *Workload, snapDir string) (deployment, error) {
	d := &procDeployment{}
	if err := h.startInto(d, w, snapDir); err != nil {
		_ = d.stop(false) // already failing; the start error says why
		return nil, err
	}
	return d, nil
}

func (h *procHost) startInto(d *procDeployment, w *Workload, snapDir string) error {
	if !w.Cluster {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		if err := h.spawnBin(d, "pd2d", append(engineFlags(w, addr, w.Shards), "-snapshot-dir", snapDir)...); err != nil {
			return err
		}
		d.nodes, d.primary = []string{"http://" + addr}, addr
		return waitFor("pd2d health", 30*time.Second, d.healthy("http://"+addr))
	}
	// The coordinator must answer before the nodes start: a node whose
	// first registration fails retries only after 250ms.
	coord, err := freeAddr()
	if err != nil {
		return err
	}
	if err := h.spawnBin(d, "pd2cluster", "-addr", coord, "-shards", "1", "-replicas", "2", "-min-nodes", "3"); err != nil {
		return err
	}
	if err := waitFor("pd2cluster health", 30*time.Second, d.healthy("http://"+coord)); err != nil {
		return err
	}
	for i := 1; i <= 3; i++ {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		args := append(engineFlags(w, addr, 1), "-cluster-coordinator", "http://"+coord, "-cluster-id", "n"+strconv.Itoa(i))
		if err := h.spawnBin(d, "pd2d", args...); err != nil {
			return err
		}
		d.nodes = append(d.nodes, "http://"+addr)
	}
	d.primary, _, err = clusterPrimary(coord)
	return err
}

func (h *procHost) restore(w *Workload, snapDir string) (deployment, error) {
	d := &procDeployment{}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := h.spawnBin(d, "pd2d", append(engineFlags(w, addr, w.Shards), "-snapshot-dir", snapDir)...); err != nil {
		return nil, err
	}
	d.nodes, d.primary = []string{"http://" + addr}, addr
	return d, nil
}

// spawnBin starts one of the built daemons.
func (h *procHost) spawnBin(d *procDeployment, name string, args ...string) error {
	return h.spawn(d, name, filepath.Join(h.bin, name), args...)
}

func (h *procHost) reference() (deployment, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &procDeployment{primary: addr}
	if err := h.spawn(d, "reference", self, ReferenceFlag, addr); err != nil {
		return nil, err
	}
	if err := waitFor("reference health", 30*time.Second, d.healthy("http://"+addr)); err != nil {
		_ = d.stop(false) // already failing
		return nil, err
	}
	return d, nil
}

// healthy probes base's /healthz and stops the wait early, with the
// reason, when one of the deployment's processes has already exited.
func (d *procDeployment) healthy(base string) func() error {
	return func() error {
		for i, ch := range d.exited {
			select {
			case err := <-ch:
				ch <- err // stop still collects it
				return errExited{fmt.Errorf("%s exited: %v", filepath.Base(d.procs[i].Path), err)}
			default:
			}
		}
		return getOK(base + "/healthz")
	}
}

func (d *procDeployment) addr() string { return d.primary }

// stop signals every process (SIGTERM when graceful, else SIGKILL) and
// waits for all of them. A graceful stop must end in a clean exit.
func (d *procDeployment) stop(graceful bool) error {
	sig := syscall.SIGKILL
	if graceful {
		sig = syscall.SIGTERM
	}
	for _, p := range d.procs {
		_ = p.Process.Signal(sig) // an already-exited process is reported by Wait
	}
	var errs []error
	for i, p := range d.procs {
		select {
		case err := <-d.exited[i]:
			if graceful && err != nil {
				errs = append(errs, fmt.Errorf("%s did not shut down cleanly: %w", filepath.Base(p.Path), err))
			}
		case <-time.After(60 * time.Second):
			_ = p.Process.Kill() // overdue; Wait reports the kill below
			<-d.exited[i]
			errs = append(errs, fmt.Errorf("%s ignored the stop signal for 60s", filepath.Base(p.Path)))
		}
	}
	d.procs, d.exited = nil, nil
	return errors.Join(errs...)
}

func (d *procDeployment) memory() (memStats, error) {
	var ms memStats
	for _, p := range d.procs {
		kb, err := procStatusKB(p.Process.Pid, "VmHWM")
		if err != nil {
			return ms, err
		}
		ms.peakRSSMB += kb / 1024
	}
	for _, base := range d.nodes {
		hs, err := heapStats(base, false)
		if err != nil {
			return ms, err
		}
		ms.gcCycles += hs.gcCycles
		ms.gcPauseMS += hs.gcPauseMS
		ms.heapInuseMB += hs.heapInuseMB
		// Two collections: the first only moves pooled buffers (the JSON
		// encoder's, grown by the /log replies) to the victim cache.
		for i := 0; i < 2; i++ {
			if hs, err = heapStats(base, true); err != nil {
				return ms, err
			}
		}
		ms.liveHeapMB += hs.liveHeapMB
	}
	return ms, nil
}
