package embedding

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/workload"
)

func trainedModelFor(t *testing.T, kind ModelKind) (Model, *Dataset) {
	t.Helper()
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 40, NumClusters: 4, Seed: 151})
	if err != nil {
		t.Fatal(err)
	}
	eng := graphengine.New(w.Graph)
	d := NewDataset(eng.Materialize(graphengine.ViewDef{}))
	m, err := Train(d, TrainConfig{Model: kind, Dim: 16, Epochs: 5, Workers: 1, Seed: 151})
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestSaveLoadModelRoundTrip(t *testing.T) {
	for _, kind := range []ModelKind{TransE, DistMult, ComplEx} {
		m, d := trainedModelFor(t, kind)
		path := filepath.Join(t.TempDir(), "m.model")
		if err := SaveModel(m, path); err != nil {
			t.Fatalf("%s: save: %v", kind, err)
		}
		loaded, err := LoadModel(path)
		if err != nil {
			t.Fatalf("%s: load: %v", kind, err)
		}
		if loaded.Kind() != kind {
			t.Fatalf("kind = %v, want %v", loaded.Kind(), kind)
		}
		if loaded.NumEntities() != m.NumEntities() || loaded.NumRelations() != m.NumRelations() || loaded.Dim() != m.Dim() {
			t.Fatalf("%s: shape mismatch after load", kind)
		}
		// Scores must be bit-identical.
		for _, tr := range d.Triples[:20] {
			if got, want := loaded.Score(tr[0], tr[1], tr[2]), m.Score(tr[0], tr[1], tr[2]); got != want {
				t.Fatalf("%s: score %v != %v after round trip", kind, got, want)
			}
		}
		// Entity vectors identical.
		va, vb := m.EntityVector(0), loaded.EntityVector(0)
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("%s: entity vector differs", kind)
			}
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel("/nonexistent/m.model"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.model")
	if err := os.WriteFile(bad, []byte("not a model file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bad); err == nil {
		t.Fatal("garbage file accepted")
	}
	// Truncated real model.
	m, _ := trainedModelFor(t, DistMult)
	good := filepath.Join(dir, "good.model")
	if err := SaveModel(m, good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.model")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(trunc); err == nil {
		t.Fatal("truncated model accepted")
	}
}

func TestRegistryVersioning(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := trainedModelFor(t, DistMult)
	info1, err := reg.Register("general-kg", m1, map[string]float64{"mrr": 0.42})
	if err != nil {
		t.Fatal(err)
	}
	if info1.Version != 1 || info1.Kind != DistMult {
		t.Fatalf("info1 = %+v", info1)
	}
	m2, _ := trainedModelFor(t, TransE)
	info2, err := reg.Register("general-kg", m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version != 2 {
		t.Fatalf("second version = %d", info2.Version)
	}
	// A second model family under its own name.
	if _, err := reg.Register("related-entities", m1, nil); err != nil {
		t.Fatal(err)
	}

	versions, err := reg.Versions("general-kg")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0] != 1 || versions[1] != 2 {
		t.Fatalf("versions = %v", versions)
	}

	// Load each version.
	loaded, info, err := reg.Load("general-kg", 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind() != DistMult || info.Metrics["mrr"] != 0.42 {
		t.Fatalf("v1 = %v %+v", loaded.Kind(), info)
	}
	latest, latestInfo, err := reg.Load("general-kg", 2)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Kind() != TransE || latestInfo.Version != 2 {
		t.Fatalf("v2 = %v v%d", latest.Kind(), latestInfo.Version)
	}
}

func TestRegistryErrors(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := trainedModelFor(t, DistMult)
	if _, err := reg.Register("", m, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, _, err := reg.Load("never-registered", 1); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := reg.Register("kg", m, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Load("kg", 2); err == nil {
		t.Fatal("unknown version accepted")
	}
}

func TestRegistryReopen(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, d := trainedModelFor(t, DistMult)
	if _, err := reg.Register("kg", m, nil); err != nil {
		t.Fatal(err)
	}
	// A fresh registry over the same directory sees the model.
	reg2, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := reg2.Load("kg", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Triples[0]
	if loaded.Score(tr[0], tr[1], tr[2]) != m.Score(tr[0], tr[1], tr[2]) {
		t.Fatal("reopened registry served a different model")
	}
}

// parentModelFiles are model files written by the SaveModel that preceded
// the flat parameter matrices (one reflective binary.Write per float): a
// 3-entity, 2-relation model of each kind after one Update.
var parentModelFiles = map[ModelKind]string{
	TransE:   "444d4153060000007472616e7365030000000200000002000000000000004cb875be358578bf0335c43ee0746cbf7cca78bf634c71be11e92940ab027bbf8e3f6ebfba369f3f",
	DistMult: "444d415308000000646973746d756c74030000000200000002000000000000002b0280bfce456dc0666a353f119319c088ca73c0a8c06bbf11e92940ab027bbf5c1a3dbfbb47973f",
	ComplEx:  "444d415307000000636f6d706c657803000000020000000400000002000000410743bfdea726c059e31f3f8ba0dfbf213b38c00a2605bf160ad93f8a45ecbe835190be9f7d533f0ed6d33f3558c6bf8c7454bfcf7111c0baeb7b3f18a54fbe4a0b863fea45a23fbcb4314072142f40",
}

// TestModelFileFormatUnchanged: a file the previous writer produced
// loads, and saving it again reproduces it byte for byte.
func TestModelFileFormatUnchanged(t *testing.T) {
	for kind, golden := range parentModelFiles {
		want, err := hex.DecodeString(golden)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		in, out := filepath.Join(dir, "in.model"), filepath.Join(dir, "out.model")
		if err := os.WriteFile(in, want, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(in)
		if err != nil {
			t.Fatalf("%s: load: %v", kind, err)
		}
		if m.Kind() != kind || m.NumEntities() != 3 || m.NumRelations() != 2 || m.Dim() != 2 {
			t.Fatalf("%s: loaded %s with %d entities, %d relations, dim %d", kind, m.Kind(), m.NumEntities(), m.NumRelations(), m.Dim())
		}
		if s := m.Score(0, 1, 2); math.IsNaN(s) {
			t.Fatalf("%s: score = %v", kind, s)
		}
		if err := SaveModel(m, out); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: re-saved file differs:\n got %x\nwant %x", kind, got, want)
		}
	}
}

// modelFile assembles a model file with an arbitrary header over payload.
func modelFile(kind string, nEnt, nRel, dim, half uint32, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, modelMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(kind)))
	b = append(b, kind...)
	for _, v := range []uint32{nEnt, nRel, dim, half} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return append(b, payload...)
}

// TestLoadModelDistrustsItsHeader: every inconsistent header is an error
// — none a panic, and none an allocation sized by the header instead of
// by the file.
func TestLoadModelDistrustsItsHeader(t *testing.T) {
	floats := func(n int) []byte { return make([]byte, 4*n) }
	cases := []struct {
		name string
		file []byte
	}{
		{"dim 2^30: 4*dim wraps uint32", modelFile("distmult", 1, 1, 1<<30, 0, floats(8))},
		{"dim 2^31", modelFile("distmult", 1, 1, 1<<31, 0, nil)},
		{"shape product wraps uint64", modelFile("distmult", 1<<31, 1<<31, 1<<31, 0, nil)},
		{"billions of entities, empty payload", modelFile("transe", 1<<31, 1, 4, 0, nil)},
		{"complex half > dim/2", modelFile("complex", 2, 1, 4, 3, floats(12))},
		{"complex half < dim/2", modelFile("complex", 2, 1, 4, 1, floats(12))},
		{"complex odd dim", modelFile("complex", 2, 1, 3, 1, floats(9))},
		{"distmult with half set", modelFile("distmult", 2, 1, 4, 2, floats(12))},
		{"zero dim", modelFile("distmult", 2, 1, 0, 0, nil)},
		{"zero entities", modelFile("distmult", 0, 1, 4, 0, floats(4))},
		{"zero relations", modelFile("distmult", 2, 0, 4, 0, floats(8))},
		{"payload one row short", modelFile("distmult", 2, 1, 4, 0, floats(8))},
		{"payload one byte long", modelFile("distmult", 2, 1, 4, 0, make([]byte, 4*12+1))},
		{"unknown kind", modelFile("rotate", 2, 1, 4, 0, floats(12))},
		{"kind length past the file", modelFile("distmult", 2, 1, 4, 0, nil)[:10]},
		{"header only", modelFile("distmult", 2, 1, 4, 0, nil)},
	}
	path := filepath.Join(t.TempDir(), "m.model")
	for _, c := range cases {
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := LoadModel(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: loaded a %s model", c.name, m.Kind())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes reading a %d-byte file", c.name, grew, len(c.file))
		}
	}
	if err := os.WriteFile(path, modelFile("complex", 2, 1, 4, 2, floats(12)), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := LoadModel(path); err != nil || m.Score(1, 0, 1) != 0 {
		t.Fatalf("consistent file: %v", err)
	}
}

func FuzzLoadModel(f *testing.F) {
	for _, golden := range parentModelFiles {
		b, _ := hex.DecodeString(golden)
		f.Add(b)
	}
	f.Add(modelFile("complex", 2, 1, 4, 3, make([]byte, 48)))
	f.Add(modelFile("distmult", 1, 1, 1<<30, 0, make([]byte, 32)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readModel(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Whatever loads is usable to its last row.
		if 4*(m.NumEntities()+m.NumRelations())*len(m.EntityVector(0)) > len(data) {
			t.Fatalf("model larger than its %d-byte file", len(data))
		}
		e, r := int32(m.NumEntities()-1), int32(m.NumRelations()-1)
		m.Score(e, r, e)
		m.Update(e, r, 0, 0, e, 0.05)
	})
}
