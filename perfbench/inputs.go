package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	tdx "repro"
	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/parser"
	"repro/internal/workload"
)

// setting is one of the repository's three synthetic domains, compiled
// in-process as the reference for the daemon's outputs.
type setting struct {
	name  string
	text  string // mapping text, as registered with tdxd
	query string // the query the ?query= and /answer ops ask
	ex    *tdx.Exchange
	// gen builds a source of about n solution facts from seed.
	gen func(seed int64, n int) *instance.Concrete
}

func newSetting(name string, m *dependency.Mapping, query string, gen func(int64, int) *instance.Concrete) (*setting, error) {
	text := parser.FormatMapping(m, nil) + "\nquery " + query + "\n"
	ex, err := tdx.Compile(text)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	return &setting{name: name, text: text, query: "q", ex: ex, gen: gen}, nil
}

// Each setting scales its generator's size knob by the solution facts
// one unit yields, as measured on the generator: about 4.9 per employee,
// 3 per patient and 11.7 per taxi driver.
func employmentSetting() (*setting, error) {
	return newSetting("employment", paperex.EmploymentMapping(), "q(n, s) :- Emp(n, c, s)",
		func(seed int64, n int) *instance.Concrete {
			return workload.Employment(workload.EmploymentConfig{Seed: seed, Persons: max(1, n*10/49),
				JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 100})
		})
}

func medicalSetting() (*setting, error) {
	return newSetting("medical", workload.MedicalMapping(), "q(p, d) :- Chart(p, w, d)",
		func(seed int64, n int) *instance.Concrete {
			return workload.Medical(workload.MedicalConfig{Seed: seed, Patients: max(1, n/3), Span: 120})
		})
}

func taxiSetting() (*setting, error) {
	return newSetting("taxi", workload.TaxiMapping(), "q(d, z) :- Trip(d, c, z)",
		func(seed int64, n int) *instance.Concrete {
			drivers := max(5, n*10/117)
			return workload.Taxi(workload.TaxiConfig{Seed: seed, Drivers: drivers, Cabs: max(2, drivers*2/5), Span: 100})
		})
}

func allSettings() ([]*setting, error) {
	var out []*setting
	for _, f := range []func() (*setting, error){employmentSetting, medicalSetting, taxiSetting} {
		s, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// subSeed derives a generator seed from the run seed and a stream index,
// so each document of a run gets its own seeded content.
func subSeed(seed int64, stream int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int64(x & math.MaxInt64)
}

// doc is one source document of a serving pool with the library's
// outputs for it.
type doc struct {
	set     *setting
	body    []byte // TDX JSON instance, as posted
	sol     []byte // compact solution JSON from Run
	answers []byte // compact answers JSON of set.query from Query
}

// newDoc generates a document and computes its reference outputs.
func newDoc(ctx context.Context, s *setting, seed int64, size int) (*doc, error) {
	src := s.gen(seed, size)
	body, err := tdx.NewInstance(src).JSON()
	if err != nil {
		return nil, err
	}
	in, err := s.ex.DecodeSourceJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	// One worker per document: the pool is built by nproc goroutines,
	// and the chase is byte-identical at any worker count.
	sol, err := s.ex.Run(ctx, in, tdx.WithParallelism(1))
	if err != nil {
		return nil, fmt.Errorf("%s reference run: %w", s.name, err)
	}
	ans, err := s.ex.Query(ctx, sol, s.query)
	if err != nil {
		return nil, err
	}
	d := &doc{set: s, body: body}
	if d.sol, err = compactJSON(sol.JSON()); err != nil {
		return nil, err
	}
	if d.answers, err = compactJSON(ans.JSON()); err != nil {
		return nil, err
	}
	return d, nil
}

func compactJSON(data []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// field reports whether a top-level field of a tdxd response, compacted,
// equals want. The fast path finds the field by its key and compares it
// in place; a response with another layout is parsed fully.
func field(body []byte, name string, want []byte) (bool, error) {
	key := []byte(`,"` + name + `":`)
	if i := bytes.Index(body, key); i >= 0 {
		rest := body[i+len(key):]
		if len(rest) > len(want) && bytes.Equal(rest[:len(want)], want) && (rest[len(want)] == ',' || rest[len(want)] == '}') {
			return true, nil
		}
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return false, fmt.Errorf("response is not JSON: %v", err)
	}
	raw, ok := doc[name]
	if !ok {
		return false, fmt.Errorf("response has no %q field", name)
	}
	got, err := compactJSON(raw, nil)
	if err != nil {
		return false, err
	}
	return bytes.Equal(got, want), nil
}

// checkField is field as an op error.
func checkField(body []byte, name string, want []byte) error {
	ok, err := field(body, name, want)
	if err != nil {
		return wrongf("%s: %v", name, err)
	}
	if !ok {
		return wrongf("%s differs from the library's", name)
	}
	return nil
}
