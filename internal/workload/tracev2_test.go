package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTraceV2RoundTrip(t *testing.T) {
	spec := testSpec()
	apps, err := GenerateCohorts(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	h := TraceHeader{Seed: spec.Seed, SpecHash: fmt.Sprintf("%016x", spec.Hash())}
	if err := WriteTraceV2(&buf, h, apps); err != nil {
		t.Fatal(err)
	}
	gotH, gotApps, err := ReadTraceV2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotH.Format != TraceFormatV2 || gotH.Version != TraceV2Version {
		t.Errorf("header %+v missing format/version", gotH)
	}
	if gotH.Seed != spec.Seed || gotH.SpecHash != h.SpecHash || gotH.Apps != len(apps) {
		t.Errorf("header %+v, want seed %d hash %s apps %d", gotH, spec.Seed, h.SpecHash, len(apps))
	}
	// Replay must be exact: the same apps, byte for byte under JSON.
	ja, _ := json.Marshal(apps)
	jb, _ := json.Marshal(gotApps)
	if !bytes.Equal(ja, jb) {
		t.Error("replayed apps differ from recorded apps")
	}
	// Recording the replayed trace reproduces the file byte for byte.
	var buf2 bytes.Buffer
	if err := WriteTraceV2(&buf2, gotH, gotApps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("record→replay→record is not byte-identical")
	}
}

func TestTraceV2LegacyAppsRoundTrip(t *testing.T) {
	// Traces from the legacy two-class generator record and replay too.
	apps, err := GenerateApps(AppConfig{
		Seed: 3, Start: start, Duration: 48 * time.Hour,
		MeanAppsPerDay: 12, MeanVMsPerApp: 5, StableFraction: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceV2(&buf, TraceHeader{Seed: 3}, apps); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTraceV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(apps)
	jb, _ := json.Marshal(got)
	if !bytes.Equal(ja, jb) {
		t.Error("legacy apps do not survive the v2 round trip")
	}
}

func TestReadTraceV2Rejections(t *testing.T) {
	goodHeader := `{"format":"vb.apptrace","version":2,"seed":1,"apps":0}`
	app := `{"id":1,"arrival":"2020-05-01T00:00:00Z","vms":[{"id":1,"cores":2,"memory_gb":4,"class":"stable"}]}`
	cases := map[string]string{
		"empty file":      "",
		"bad json header": "not json",
		"wrong format":    `{"format":"vb.vmtrace","version":2,"seed":1,"apps":0}`,
		"wrong version":   `{"format":"vb.apptrace","version":1,"seed":1,"apps":0}`,
		"unknown field":   `{"format":"vb.apptrace","version":2,"seed":1,"apps":0,"zzz":1}`,
		"count mismatch":  goodHeader + "\n" + app,
		"bad class": strings.Replace(goodHeader, `"apps":0`, `"apps":1`, 1) + "\n" +
			strings.Replace(app, "stable", "spot", 1),
		"zero-core app": strings.Replace(goodHeader, `"apps":0`, `"apps":1`, 1) + "\n" +
			strings.Replace(app, `"cores":2`, `"cores":0`, 1),
		"garbage record": strings.Replace(goodHeader, `"apps":0`, `"apps":1`, 1) + "\nnope",
	}
	for name, in := range cases {
		if _, _, err := ReadTraceV2(strings.NewReader(in)); err == nil {
			t.Errorf("%s: should be rejected", name)
		}
	}
	// Control: the good header alone is a valid empty trace.
	h, apps, err := ReadTraceV2(strings.NewReader(goodHeader))
	if err != nil {
		t.Fatalf("valid empty trace rejected: %v", err)
	}
	if len(apps) != 0 || h.Seed != 1 {
		t.Errorf("empty trace parsed as %+v with %d apps", h, len(apps))
	}
}

// FuzzReadTraceV2 holds the trace v2 decoder to its contract on any input:
// GIVEN any bytes, WHEN ReadTraceV2 decodes them, THEN it returns an error
// or a header and apps, never a panic; and WHEN WriteTraceV2 records that
// result, THEN the recording replays and records to the same bytes again.
func FuzzReadTraceV2(f *testing.F) {
	record := func(h TraceHeader, apps []App) {
		var rec bytes.Buffer
		if err := WriteTraceV2(&rec, h, apps); err != nil {
			f.Fatal(err)
		}
		f.Add(rec.Bytes())
	}
	legacy, err := GenerateApps(AppConfig{
		Seed: 3, Start: start, Duration: 24 * time.Hour,
		MeanAppsPerDay: 4, MeanVMsPerApp: 3, StableFraction: 0.7,
	})
	if err != nil {
		f.Fatal(err)
	}
	record(TraceHeader{Seed: 3}, legacy)
	spec, err := LoadTraceSpec(filepath.Join("..", "..", "examples", "cohorts", "bursty.json"))
	if err != nil {
		f.Fatal(err)
	}
	bursty, err := GenerateCohorts(*spec)
	if err != nil {
		f.Fatal(err)
	}
	// The first four apps (a batch app with a lifetime, stable and
	// real-time apps) carry every field; the whole trace (24 apps, 1,280
	// VMs) would only slow each run.
	record(TraceHeader{Seed: spec.Seed, SpecHash: fmt.Sprintf("%016x", spec.Hash())}, bursty[:min(4, len(bursty))])

	f.Fuzz(func(t *testing.T, data []byte) {
		h, apps, err := ReadTraceV2(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := WriteTraceV2(&once, h, apps); err != nil {
			t.Fatalf("recording a decoded trace: %v", err)
		}
		h2, apps2, err := ReadTraceV2(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("replaying a recorded trace: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := WriteTraceV2(&twice, h2, apps2); err != nil {
			t.Fatalf("recording a replayed trace: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("record, replay, record changed the bytes:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
