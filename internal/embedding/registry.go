package embedding

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Model persistence and the Model Registry of Fig 3: training runs
// register their output ("Model Registry" box), and inference loads a
// named, versioned model. The on-disk format is a small binary file:
// magic, model kind, shape, then the entity and relation matrices.

const modelMagic = uint32(0x53414D44) // "SAMD"

// SaveModel serializes a trained model to path.
func SaveModel(m Model, path string) error {
	b, half, err := baseOf(m)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("embedding: save model: %w", err)
	}
	w := bufio.NewWriter(f)
	kind := []byte(m.Kind())
	hdr := binary.LittleEndian.AppendUint32(nil, modelMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(kind)))
	hdr = append(hdr, kind...)
	for _, v := range []int{b.NumEntities(), b.NumRelations(), b.dim, half} {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(v))
	}
	_, err = w.Write(hdr)
	if err == nil {
		err = writeFloats(w, b.ent)
	}
	if err == nil {
		err = writeFloats(w, b.rel)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("embedding: save model %s: %w", path, err)
	}
	return f.Close()
}

// floatChunk is how many matrix elements move through the stack buffer
// of writeFloats and readFloats at a time.
const floatChunk = 1024

// writeFloats writes m as little-endian float32 words.
func writeFloats(w io.Writer, m []float32) error {
	var buf [4 * floatChunk]byte
	for len(m) > 0 {
		n := min(len(m), floatChunk)
		for i, x := range m[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		m = m[n:]
	}
	return nil
}

// readFloats fills m from little-endian float32 words.
func readFloats(r io.Reader, m []float32) error {
	var buf [4 * floatChunk]byte
	for len(m) > 0 {
		n := min(len(m), floatChunk)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return err
		}
		for i := range m[:n] {
			m[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		m = m[n:]
	}
	return nil
}

// LoadModel deserializes a model saved by SaveModel.
func LoadModel(path string) (Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("embedding: load model: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("embedding: load model: %w", err)
	}
	m, err := readModel(bufio.NewReader(f), st.Size())
	if err != nil {
		return nil, fmt.Errorf("embedding: model %s: %w", path, err)
	}
	return m, nil
}

// readModel decodes a model file of the given size. Nothing in the header
// is trusted: the kind, the dim/half pairing and the shape are checked,
// and the shape must account for the file's size to the byte, before a
// matrix is allocated — a corrupt header can neither drive an allocation
// larger than the file nor yield a model whose Score indexes past a row.
func readModel(r io.Reader, size int64) (Model, error) {
	var fixed [8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(fixed[0:]); magic != modelMagic {
		return nil, fmt.Errorf("bad magic %x", magic)
	}
	kindLen := binary.LittleEndian.Uint32(fixed[4:])
	if kindLen > 64 {
		return nil, fmt.Errorf("implausible kind length %d", kindLen)
	}
	rest := make([]byte, kindLen+16)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	kind := ModelKind(rest[:kindLen])
	shape := rest[kindLen:]
	nEnt := uint64(binary.LittleEndian.Uint32(shape[0:]))
	nRel := uint64(binary.LittleEndian.Uint32(shape[4:]))
	dim := uint64(binary.LittleEndian.Uint32(shape[8:]))
	half := uint64(binary.LittleEndian.Uint32(shape[12:]))
	switch kind {
	case TransE, DistMult:
		if half != 0 {
			return nil, fmt.Errorf("kind %q with half = %d", kind, half)
		}
	case ComplEx:
		if dim != 2*half {
			return nil, fmt.Errorf("kind %q with dim = %d, half = %d (want dim = 2·half)", kind, dim, half)
		}
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	if nEnt == 0 || nRel == 0 || dim == 0 {
		return nil, fmt.Errorf("invalid shape ents=%d rels=%d dim=%d", nEnt, nRel, dim)
	}
	// nEnt+nRel < 2³³ and dim < 2³², so the product can pass 2⁶⁴: divide.
	payload := uint64(max(0, size-int64(len(fixed)+len(rest))))
	if payload%(4*dim) != 0 || payload/(4*dim) != nEnt+nRel {
		return nil, fmt.Errorf("shape ents=%d rels=%d dim=%d does not match the %d-byte file", nEnt, nRel, dim, size)
	}
	b := base{ent: make([]float32, nEnt*dim), rel: make([]float32, nRel*dim), dim: int(dim)}
	if err := readFloats(r, b.ent); err != nil {
		return nil, fmt.Errorf("truncated: %w", err)
	}
	if err := readFloats(r, b.rel); err != nil {
		return nil, fmt.Errorf("truncated: %w", err)
	}
	switch kind {
	case TransE:
		return &transEModel{base: b}, nil
	case DistMult:
		return &distMultModel{base: b}, nil
	default:
		return &complExModel{base: b, half: int(half)}, nil
	}
}

// baseOf extracts the parameter matrices from a known model kind.
func baseOf(m Model) (*base, int, error) {
	switch mm := m.(type) {
	case *transEModel:
		return &mm.base, 0, nil
	case *distMultModel:
		return &mm.base, 0, nil
	case *complExModel:
		return &mm.base, mm.half, nil
	default:
		return nil, 0, fmt.Errorf("embedding: cannot serialize model kind %q", m.Kind())
	}
}

// Registry is the Fig 3 model registry: a directory of versioned, named
// models with JSON metadata. Version numbers increase per name.
type Registry struct {
	dir string
}

// ModelInfo is one registry entry's metadata.
type ModelInfo struct {
	Name      string    `json:"name"`
	Version   int       `json:"version"`
	Kind      ModelKind `json:"kind"`
	Dim       int       `json:"dim"`
	Entities  int       `json:"entities"`
	Relations int       `json:"relations"`
	CreatedAt time.Time `json:"created_at"`
	// Metrics carries free-form evaluation results (MRR etc.).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// NewRegistry opens (or creates) a registry rooted at dir.
func NewRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("embedding: registry dir: %w", err)
	}
	return &Registry{dir: dir}, nil
}

func (r *Registry) modelPath(name string, version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s-v%04d.model", name, version))
}

func (r *Registry) metaPath(name string, version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s-v%04d.json", name, version))
}

// Register stores a model under name with the next version number and
// returns its metadata.
func (r *Registry) Register(name string, m Model, metrics map[string]float64) (ModelInfo, error) {
	if name == "" {
		return ModelInfo{}, fmt.Errorf("embedding: registry: empty model name")
	}
	versions, err := r.Versions(name)
	if err != nil {
		return ModelInfo{}, err
	}
	next := 1
	if len(versions) > 0 {
		next = versions[len(versions)-1] + 1
	}
	info := ModelInfo{
		Name: name, Version: next, Kind: m.Kind(), Dim: m.Dim(),
		Entities: m.NumEntities(), Relations: m.NumRelations(),
		CreatedAt: time.Now().UTC(), Metrics: metrics,
	}
	if err := SaveModel(m, r.modelPath(name, next)); err != nil {
		return ModelInfo{}, err
	}
	meta, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return ModelInfo{}, err
	}
	if err := os.WriteFile(r.metaPath(name, next), meta, 0o644); err != nil {
		return ModelInfo{}, err
	}
	return info, nil
}

// Versions lists the registered versions of name, ascending.
func (r *Registry) Versions(name string) ([]int, error) {
	pattern := filepath.Join(r.dir, name+"-v*.model")
	matches, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, m := range matches {
		var v int
		base := filepath.Base(m)
		if _, err := fmt.Sscanf(base, name+"-v%d.model", &v); err == nil {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Load retrieves a specific version.
func (r *Registry) Load(name string, version int) (Model, ModelInfo, error) {
	meta, err := os.ReadFile(r.metaPath(name, version))
	if err != nil {
		return nil, ModelInfo{}, fmt.Errorf("embedding: registry: %w", err)
	}
	var info ModelInfo
	if err := json.Unmarshal(meta, &info); err != nil {
		return nil, ModelInfo{}, fmt.Errorf("embedding: registry metadata: %w", err)
	}
	m, err := LoadModel(r.modelPath(name, version))
	if err != nil {
		return nil, ModelInfo{}, err
	}
	return m, info, nil
}

// LoadLatest retrieves the highest registered version of name.
func (r *Registry) LoadLatest(name string) (Model, ModelInfo, error) {
	versions, err := r.Versions(name)
	if err != nil {
		return nil, ModelInfo{}, err
	}
	if len(versions) == 0 {
		return nil, ModelInfo{}, fmt.Errorf("embedding: registry: no versions of %q", name)
	}
	return r.Load(name, versions[len(versions)-1])
}

// List returns metadata for every registered model, sorted by name then
// version.
func (r *Registry) List() ([]ModelInfo, error) {
	matches, err := filepath.Glob(filepath.Join(r.dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []ModelInfo
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			return nil, err
		}
		var info ModelInfo
		if err := json.Unmarshal(data, &info); err != nil {
			continue // skip foreign json files
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out, nil
}
