package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// tailRef is serve.Tail without its JSON methods, so encoding/json
// walks it by reflection: the reference for what a file holds, and the
// writer of the indented files pd2d wrote before the tail codec.
type tailRef serve.Tail

// TestSnapshotFilesRoundTrip: writeSnapshots then loadSnapshots gives
// back every shard's snapshot unchanged, each file is encoding/json's
// compact encoding of a version-5 tail with no admission books, an
// indented file written the old way loads the same, the loaded
// snapshots restore, and no temp file is left behind. A version-4 file
// (internal/serve's fixture, with its books) loads and restores too.
func TestSnapshotFilesRoundTrip(t *testing.T) {
	opts := serve.Options{Shards: 2, Config: serve.ShardConfig{M: 2, Policy: "oi"}}
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	for shard := 0; shard < 2; shard++ {
		for _, req := range []struct{ path, body string }{
			{"commands", fmt.Sprintf(`{"op":"join","task":"T%d","weight":"1/4"}`, shard)},
			{"advance", `{"slots":3}`},
		} {
			url := fmt.Sprintf("%s/v1/shards/%d/%s", ts.URL, shard, req.path)
			resp, err := http.Post(url, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s answered %d", url, resp.StatusCode)
			}
		}
	}
	ts.Close()
	srv.Stop()

	dir := filepath.Join(t.TempDir(), "snap")
	want := srv.Snapshots()
	if err := writeSnapshots(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d snapshots, wrote %d", len(got), len(want))
	}
	for i := range want {
		w, _ := json.Marshal((*tailRef)(want[i]))
		g, _ := json.Marshal((*tailRef)(got[i]))
		if string(g) != string(w) {
			t.Fatalf("shard %d snapshot changed on disk:\nwrote  %s\nloaded %s", i, w, g)
		}
		data, err := os.ReadFile(snapshotPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(w)+"\n" {
			t.Fatalf("shard %d file is not encoding/json's compact encoding:\nfile %s\njson %s", i, data, w)
		}
		var file map[string]json.RawMessage
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		if _, books := file["admission"]; string(file["version"]) != "5" || books {
			t.Fatalf("shard %d file has version %s and books %s, want version 5 and none", i, file["version"], file["admission"])
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}

	old := filepath.Join(t.TempDir(), "old")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, snap := range want {
		data, err := json.MarshalIndent((*tailRef)(snap), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotPath(old, snap.Shard), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	indented, err := loadSnapshots(old)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(indented[i], got[i]) {
			t.Fatalf("shard %d: indented file loads as %+v, compact one as %+v", i, indented[i], got[i])
		}
	}
	opts.Snapshots = got
	if _, err := serve.New(opts); err != nil {
		t.Fatalf("restoring the loaded snapshots: %v", err)
	}

	v4 := filepath.Join(t.TempDir(), "v4")
	data, err := os.ReadFile("../../internal/serve/testdata/snapshot_v4.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(v4, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(v4, 0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	old4, err := loadSnapshots(v4)
	if err != nil {
		t.Fatal(err)
	}
	if len(old4) != 1 || old4[0].Version != 4 || old4[0].Admission == nil {
		t.Fatalf("version-4 file loads as %+v, want one version-4 snapshot with books", old4)
	}
	opts.Snapshots = old4
	if _, err := serve.New(opts); err != nil {
		t.Fatalf("restoring the version-4 file: %v", err)
	}
}
