package server

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// JobSpec is the JSON body of a job submission: sim.Spec, the one
// description of a run every front end shares (README.md "Run parameters").
type JobSpec = sim.Spec

// parseSpec decodes a submission body strictly: unknown fields are rejected
// so a typo ("generatoins") fails loudly instead of silently running the
// default.
func parseSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("server: decoding job spec: %w", err)
	}
	return spec, nil
}
