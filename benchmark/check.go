package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"cafa/internal/apps"
	"cafa/internal/report"
)

// plantedClass is the class a planted true race must be reported
// with (report.Problems' rule); other labels carry no class demand.
var plantedClass = map[apps.Label]string{
	apps.LabelTrueA: "intra-thread",
	apps.LabelTrueB: "inter-thread",
	apps.LabelTrueC: "conventional",
}

// truthProblems scores one report's races against an app's planted
// ground truth with the rule report.Problems applies to Table 1: every
// planted race except the filtered ones must be reported, true races
// with their planted class, and nothing else may be reported.
func truthProblems(truth []apps.Planted, races []report.RaceJSON) []string {
	byField := make(map[string]apps.Planted, len(truth))
	for _, pl := range truth {
		byField[pl.Field] = pl
	}
	var problems []string
	seen := make(map[string]bool)
	for _, r := range races {
		pl, ok := byField[r.Field]
		if !ok {
			problems = append(problems, fmt.Sprintf("unexpected report on %s", r.Field))
			continue
		}
		seen[r.Field] = true
		if pl.Label == apps.LabelFiltered {
			problems = append(problems, fmt.Sprintf("%s: benign scenario reported", r.Field))
		} else if want, ok := plantedClass[pl.Label]; ok && r.Class != want {
			problems = append(problems, fmt.Sprintf("%s: planted %s, reported %s", r.Field, pl.Label, r.Class))
		}
	}
	for _, pl := range truth {
		if pl.Label != apps.LabelFiltered && !seen[pl.Field] {
			problems = append(problems, fmt.Sprintf("missed %s (%s)", pl.Field, pl.Label))
		}
	}
	sort.Strings(problems)
	return problems
}

// checkRaces checks one input's reported races: against the planted
// ground truth for an app trace, against want (the unpadded shape's
// races) for a synth trace.
func checkRaces(in *input, want, got []report.RaceJSON) error {
	if in.truth != nil {
		if p := truthProblems(in.truth, got); len(p) > 0 {
			return fmt.Errorf("%s: ground truth: %s", in.name, strings.Join(p, "; "))
		}
		return nil
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("%s: %d races, the unpadded shape has %d (or they differ)", in.name, len(got), len(want))
	}
	return nil
}

// checkReport parses a single-input JSON report (cafa-analyze -json or
// cafa-serve's report artifact) and checks its races.
func checkReport(in *input, want []report.RaceJSON, raw []byte) error {
	var rep report.ReportJSON
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: report: %w", in.name, err)
	}
	if len(rep.Inputs) != 1 || rep.Inputs[0].File != in.name {
		return fmt.Errorf("%s: report does not describe this one input", in.name)
	}
	if rep.Inputs[0].Entries != in.entries {
		return fmt.Errorf("%s: report counts %d entries, the trace has %d", in.name, rep.Inputs[0].Entries, in.entries)
	}
	return checkRaces(in, want, rep.Inputs[0].Races)
}
