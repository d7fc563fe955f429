package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"zbp/internal/hashx"
	"zbp/internal/trace"
	"zbp/internal/zarch"
)

// File-backed workloads: alongside the synthetic generators, a
// workload name can be a trace file on disk (`file:<path>`) or a
// declarative mix of generators and trace files (`spec:<path>`).
//
// Unlike a generator, a file's bytes can change between runs, so a
// file-backed workload's *identity* is its content, not its name:
// SpecID resolves any workload name to a canonical identity string,
// which for path-backed forms is a SHA-256 content digest. The result
// cache, the cluster router, and the in-process Materializer all key
// on that identity, so editing a trace file on disk can never serve a
// stale cached result.

// Workload-name prefixes for path-backed forms.
const (
	// FilePrefix names a single trace file: `file:<path>`. Files ending
	// in .champsim or .champsimtrace are ingested through the ChampSim
	// adapter; anything else is decoded as a .zbpt trace.
	FilePrefix = "file:"
	// SpecPrefix names a workload-spec JSON file: `spec:<path>`.
	SpecPrefix = "spec:"
)

// PathBacked reports whether name refers to on-disk content (a file:
// or spec: form) rather than a registered generator.
func PathBacked(name string) bool {
	return strings.HasPrefix(name, FilePrefix) || strings.HasPrefix(name, SpecPrefix)
}

// SpecID resolves a workload name to its canonical cache identity.
// Generator names are their own identity. Path-backed names resolve to
// a content digest: the file's SHA-256 for file: forms, and for spec:
// forms the digest of the spec document plus every trace file it
// references, so any byte of referenced content changing changes the
// identity. An unreadable path is an error — such a workload cannot be
// materialized either, so callers fail fast instead of caching under a
// wrong identity.
func SpecID(name string) (string, error) {
	switch {
	case strings.HasPrefix(name, FilePrefix):
		d, err := fileDigest(name[len(FilePrefix):])
		if err != nil {
			return "", err
		}
		return FilePrefix + "sha256:" + d, nil
	case strings.HasPrefix(name, SpecPrefix):
		d, err := specDigest(name[len(SpecPrefix):])
		if err != nil {
			return "", err
		}
		return SpecPrefix + "sha256:" + d, nil
	default:
		return name, nil
	}
}

// fileDigest returns the hex SHA-256 of the file at path. The digest
// is recomputed per call on purpose: trace files are small relative to
// the simulations they feed, and a stat-based cache would trade the
// staleness bug this exists to fix for a narrower mtime-granularity
// version of it.
func fileDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("workload: digesting %s: %w", path, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// specDigest folds the spec document and every referenced trace file
// into one digest.
func specDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("workload: digesting %s: %w", path, err)
	}
	h := sha256.New()
	h.Write(b)
	spec, err := parseSpec(b)
	if err != nil {
		return "", fmt.Errorf("workload: %s: %w", path, err)
	}
	for _, f := range spec.filePaths(filepath.Dir(path)) {
		d, err := fileDigest(f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Spec is the declarative workload-spec document (`spec:<path>`): a
// context-switching mix of generators and trace files, interleaved in
// round-robin time slices with each part stamped with its own context
// ID (the Multiplex arrival model).
type Spec struct {
	// Version must be 1.
	Version int `json:"version"`
	// Slice is the records-per-timeslice context-switch interval.
	// Default: 30000.
	Slice int `json:"slice,omitempty"`
	// Parts are the mixed sources; at least one is required.
	Parts []SpecPart `json:"parts"`
}

// SpecPart is one source in a Spec: exactly one of Workload (a
// registered generator name) or File (a trace file path, resolved
// relative to the spec document) must be set.
type SpecPart struct {
	Workload string `json:"workload,omitempty"`
	File     string `json:"file,omitempty"`
	// Loop replays a trace file cyclically (with a synthetic bridge
	// branch at the wrap) instead of letting it run dry mid-mix.
	Loop bool `json:"loop,omitempty"`
	// SeedOffset decorrelates this part from the run seed.
	SeedOffset uint64 `json:"seed_offset,omitempty"`
	// Funcs and Zipf, valid only with Workload "lspr", override the
	// LSPR footprint (function count) and skew — the knob for mixing
	// differently-sized code footprints in one spec.
	Funcs int     `json:"funcs,omitempty"`
	Zipf  float64 `json:"zipf,omitempty"`
}

// parseSpec decodes and structurally validates a spec document.
func parseSpec(b []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("invalid workload spec: %w", err)
	}
	if s.Version != 1 {
		return nil, fmt.Errorf("invalid workload spec: unsupported version %d (want 1)", s.Version)
	}
	if s.Slice == 0 {
		s.Slice = 30000
	}
	if s.Slice < 0 {
		return nil, fmt.Errorf("invalid workload spec: negative slice %d", s.Slice)
	}
	if len(s.Parts) == 0 {
		return nil, fmt.Errorf("invalid workload spec: no parts")
	}
	for i, p := range s.Parts {
		if (p.Workload == "") == (p.File == "") {
			return nil, fmt.Errorf("invalid workload spec: part %d needs exactly one of workload or file", i)
		}
		if p.Workload != "" && PathBacked(p.Workload) {
			return nil, fmt.Errorf("invalid workload spec: part %d: nested path-backed workload %q (use the file field)", i, p.Workload)
		}
		if p.Funcs != 0 && p.Workload != "lspr" {
			return nil, fmt.Errorf("invalid workload spec: part %d: funcs is only valid with workload \"lspr\"", i)
		}
		if p.Funcs != 0 && p.Funcs < 8 {
			return nil, fmt.Errorf("invalid workload spec: part %d: funcs %d below the LSPR minimum of 8", i, p.Funcs)
		}
		if p.Loop && p.File == "" {
			return nil, fmt.Errorf("invalid workload spec: part %d: loop is only valid with a file part", i)
		}
	}
	return &s, nil
}

// filePaths returns the trace files the spec references, resolved
// against the spec document's directory.
func (s *Spec) filePaths(dir string) []string {
	var out []string
	for _, p := range s.Parts {
		if p.File != "" {
			out = append(out, resolvePath(dir, p.File))
		}
	}
	return out
}

// resolvePath resolves ref against dir unless ref is absolute.
func resolvePath(dir, ref string) string {
	if filepath.IsAbs(ref) {
		return ref
	}
	return filepath.Join(dir, ref)
}

// SpecFiles parses the spec document at path and returns the trace
// file paths it references (resolved against the document directory).
// The zbpd service uses it to keep every referenced file inside the
// allowlisted trace directory.
func SpecFiles(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	spec, err := parseSpec(b)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	return spec.filePaths(filepath.Dir(path)), nil
}

// makeFile opens a trace file as a cursor over the packed decode, so
// every record is validated exactly once at load time.
func makeFile(path string) (*trace.Cursor, error) {
	p, err := loadTraceFile(path)
	if err != nil {
		return nil, err
	}
	cur := p.Cursor()
	return &cur, nil
}

// loadTraceFile decodes path by format: ChampSim traces by extension,
// the native .zbpt codec otherwise.
func loadTraceFile(path string) (*trace.Packed, error) {
	switch filepath.Ext(path) {
	case ".champsim", ".champsimtrace":
		p, _, err := trace.IngestChampSimFile(path, 0)
		return p, err
	default:
		return trace.LoadPackedFile(path)
	}
}

// makeSpec builds the Multiplex mix a spec document describes.
func makeSpec(path string, seed uint64) (trace.Source, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	spec, err := parseSpec(b)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	srcs := make([]trace.Source, len(spec.Parts))
	for i, part := range spec.Parts {
		// Each part gets a decorrelated seed so two generator parts of
		// the same kind don't replay identical streams.
		pseed := hashx.SeedFor(seed, fmt.Sprintf("spec-part-%d", i)) + part.SeedOffset
		switch {
		case part.File != "":
			cur, err := makeFile(resolvePath(dir, part.File))
			if err != nil {
				return nil, err
			}
			if part.Loop {
				srcs[i] = NewLoop(cur)
			} else {
				srcs[i] = cur
			}
		case part.Funcs != 0:
			z := part.Zipf
			if z == 0 {
				z = 1.0
			}
			srcs[i] = LSPR(pseed, part.Funcs, z)
		default:
			src, err := Make(part.Workload, pseed)
			if err != nil {
				return nil, err
			}
			srcs[i] = src
		}
	}
	return NewMultiplex(srcs, spec.Slice), nil
}

// Loop replays a packed trace cyclically. The simulator requires a
// contiguous record stream, so at each wrap Loop emits a synthetic
// taken unconditional branch bridging the last record's fallthrough
// back to the first record's address — the same glue the trace ingest
// adapter uses at discontinuities.
type Loop struct {
	src       *trace.Cursor
	started   bool
	first     trace.Rec
	last      trace.Rec
	needGlue  bool
	exhausted bool
}

// NewLoop wraps src in cyclic replay.
func NewLoop(src *trace.Cursor) *Loop { return &Loop{src: src} }

// Next implements trace.Source. An empty underlying source yields an
// empty loop rather than spinning.
func (l *Loop) Next() (trace.Rec, bool) {
	if l.exhausted {
		return trace.Rec{}, false
	}
	if l.needGlue {
		l.needGlue = false
		from := l.last.Next()
		if from != l.first.Addr {
			glue := trace.NewRec(from, 4, zarch.KindUncondRel, true, l.first.Addr, l.last.CtxID)
			l.last = glue
			return glue, true
		}
	}
	r, ok := l.src.Next()
	if !ok {
		if !l.started {
			l.exhausted = true
			return trace.Rec{}, false
		}
		l.src.Reset()
		l.needGlue = true
		return l.Next()
	}
	if !l.started {
		l.first, l.started = r, true
	}
	l.last = r
	return r, true
}
