package serve

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsDocMatchesExposition keeps docs/SERVE.md §Metrics honest:
// the family names scraped from /metrics on a server with cluster stats
// attached must be exactly the pd2d_* names that section mentions.
func TestMetricsDocMatchesExposition(t *testing.T) {
	srv, ts := testServer(t, Options{Shards: 2, Config: ShardConfig{M: 2}})
	srv.AttachClusterStats(NewClusterStats(2))
	if code, body := postJSON(t, ts.URL+"/v1/shards/0/advance", AdvanceRequest{Slots: 1}); code != http.StatusOK {
		t.Fatalf("advance: %d: %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexAny(line, "{ "); i > 0 {
			exported[line[:i]] = true
		}
	}

	doc, err := os.ReadFile("../../docs/SERVE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Metrics\n")
	if !ok {
		t.Fatal("docs/SERVE.md has no ## Metrics section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`pd2d_[a-z_]+`).FindAllString(section, -1) {
		documented[name] = true
	}

	if missing := minus(exported, documented); len(missing) > 0 {
		t.Errorf("exported but not documented in docs/SERVE.md §Metrics: %v", missing)
	}
	if stale := minus(documented, exported); len(stale) > 0 {
		t.Errorf("documented in docs/SERVE.md §Metrics but not exported: %v", stale)
	}
}

// minus returns the sorted keys of a that are not in b.
func minus(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestMetricsFamiliesGrouped requires /metrics to print each family as
// one contiguous group, as the Prometheus text format demands, with the
// shards of a per-shard family in index order.
func TestMetricsFamiliesGrouped(t *testing.T) {
	srv, ts := testServer(t, Options{Shards: 2, Config: ShardConfig{M: 2}})
	srv.AttachClusterStats(NewClusterStats(2))
	for s := 0; s < 2; s++ {
		if code, body := postJSON(t, ts.URL+"/v1/shards/"+strconv.Itoa(s)+"/advance", AdvanceRequest{Slots: 1}); code != http.StatusOK {
			t.Fatalf("advance shard %d: %d: %s", s, code, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	closed := map[string]bool{} // families whose group has ended
	labels := map[string][]string{}
	last := ""
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		i := strings.IndexAny(line, "{ ")
		if i <= 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		name := line[:i]
		if name != last {
			if closed[name] {
				t.Errorf("%s prints in more than one group; again at %q", name, line)
			}
			closed[last] = true
			last = name
		}
		if label, ok := strings.CutPrefix(line[i:], `{shard="`); ok {
			labels[name] = append(labels[name], label[:strings.IndexByte(label, '"')])
		}
	}
	if len(labels) < 20 {
		t.Fatalf("only %d per-shard families in the exposition", len(labels))
	}
	for name, got := range labels {
		if strings.Join(got, ",") != "0,1" {
			t.Errorf("%s prints shards %v, want [0 1]", name, got)
		}
	}
}
