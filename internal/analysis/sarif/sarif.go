// Package sarif models the subset of the SARIF 2.1.0 log format
// (Static Analysis Results Interchange Format, OASIS standard) that
// spartanvet emits for GitHub code scanning, plus a strict Validate
// used in tests and available to CI.
//
// The model is deliberately small: one tool driver with its rules, one
// run, results with physical locations, and inSource suppressions for
// findings silenced by //spartanvet:ignore directives. Field names and
// required-ness follow the sarif-schema-2.1.0 definitions; Validate
// enforces the required fields and enumerated values for everything the
// model can express, and rejects unknown fields so a drifting emitter
// fails loudly in tests rather than at upload time.
package sarif

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Version is the SARIF spec version this package writes.
const Version = "2.1.0"

// SchemaURI is the canonical schema location recorded in $schema.
const SchemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

// Log is the top-level SARIF document.
type Log struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []Run  `json:"runs"`
}

// Run is one invocation of one tool.
type Run struct {
	Tool    Tool     `json:"tool"`
	Results []Result `json:"results"`
}

// Tool identifies the analysis tool; Driver is its primary component.
type Tool struct {
	Driver Driver `json:"driver"`
}

// Driver names the tool and declares its rules.
type Driver struct {
	Name           string `json:"name"`
	Version        string `json:"semanticVersion,omitempty"`
	InformationURI string `json:"informationUri,omitempty"`
	Rules          []Rule `json:"rules,omitempty"`
}

// Rule is a reportingDescriptor: one analyzer.
type Rule struct {
	ID               string         `json:"id"`
	Name             string         `json:"name,omitempty"`
	ShortDescription *Multiformat   `json:"shortDescription,omitempty"`
	FullDescription  *Multiformat   `json:"fullDescription,omitempty"`
	HelpURI          string         `json:"helpUri,omitempty"`
	DefaultConfig    *Configuration `json:"defaultConfiguration,omitempty"`
}

// Multiformat is a multiformatMessageString; Text is required.
type Multiformat struct {
	Text     string `json:"text"`
	Markdown string `json:"markdown,omitempty"`
}

// Configuration is a reportingConfiguration (default severity).
type Configuration struct {
	Level string `json:"level,omitempty"`
}

// Result is one finding.
type Result struct {
	RuleID       string        `json:"ruleId"`
	RuleIndex    *int          `json:"ruleIndex,omitempty"`
	Level        string        `json:"level,omitempty"`
	Message      Message       `json:"message"`
	Locations    []Location    `json:"locations,omitempty"`
	Suppressions []Suppression `json:"suppressions,omitempty"`
}

// Message carries the result text.
type Message struct {
	Text string `json:"text"`
}

// Location wraps a physical location.
type Location struct {
	PhysicalLocation PhysicalLocation `json:"physicalLocation"`
}

// PhysicalLocation is a file region.
type PhysicalLocation struct {
	ArtifactLocation ArtifactLocation `json:"artifactLocation"`
	Region           *Region          `json:"region,omitempty"`
}

// ArtifactLocation names the file, as a relative URI.
type ArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

// Region is a sub-file range; SARIF lines and columns are 1-based.
type Region struct {
	StartLine   int `json:"startLine,omitempty"`
	StartColumn int `json:"startColumn,omitempty"`
	EndLine     int `json:"endLine,omitempty"`
	EndColumn   int `json:"endColumn,omitempty"`
}

// Suppression records why a result is not failing the build.
type Suppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// Marshal renders the log with stable two-space indentation and a
// trailing newline, ready to write to a .sarif file.
func (l *Log) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// resultLevels are the legal values of result.level per the schema.
var resultLevels = map[string]bool{"none": true, "note": true, "warning": true, "error": true}

// suppressionKinds are the legal values of suppression.kind.
var suppressionKinds = map[string]bool{"inSource": true, "external": true}

// Validate strictly decodes data as a SARIF 2.1.0 log restricted to
// this package's model and checks every required field and enumerated
// value. Unknown fields are errors: the emitter and the model must not
// drift apart silently.
func Validate(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var log Log
	if err := dec.Decode(&log); err != nil {
		return fmt.Errorf("sarif: decoding: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("sarif: trailing data after log object")
	}
	if log.Version != Version {
		return fmt.Errorf("sarif: version is %q, want %q", log.Version, Version)
	}
	if log.Runs == nil {
		return fmt.Errorf("sarif: runs is required")
	}
	for i, run := range log.Runs {
		if err := validateRun(run); err != nil {
			return fmt.Errorf("sarif: runs[%d]: %w", i, err)
		}
	}
	return nil
}

func validateRun(run Run) error {
	if run.Tool.Driver.Name == "" {
		return fmt.Errorf("tool.driver.name is required")
	}
	ruleIndex := map[string]int{}
	for i, rule := range run.Tool.Driver.Rules {
		if rule.ID == "" {
			return fmt.Errorf("tool.driver.rules[%d]: id is required", i)
		}
		if _, dup := ruleIndex[rule.ID]; dup {
			return fmt.Errorf("tool.driver.rules[%d]: duplicate rule id %q", i, rule.ID)
		}
		ruleIndex[rule.ID] = i
		if rule.ShortDescription != nil && rule.ShortDescription.Text == "" {
			return fmt.Errorf("rule %s: shortDescription.text is required", rule.ID)
		}
		if rule.FullDescription != nil && rule.FullDescription.Text == "" {
			return fmt.Errorf("rule %s: fullDescription.text is required", rule.ID)
		}
		if c := rule.DefaultConfig; c != nil && c.Level != "" && !resultLevels[c.Level] {
			return fmt.Errorf("rule %s: defaultConfiguration.level %q is not a SARIF level", rule.ID, c.Level)
		}
	}
	if run.Results == nil {
		return fmt.Errorf("results is required (use an empty array for a clean run)")
	}
	for i, r := range run.Results {
		if err := validateResult(r, ruleIndex); err != nil {
			return fmt.Errorf("results[%d]: %w", i, err)
		}
	}
	return nil
}

func validateResult(r Result, ruleIndex map[string]int) error {
	if r.Message.Text == "" {
		return fmt.Errorf("message.text is required")
	}
	if r.Level != "" && !resultLevels[r.Level] {
		return fmt.Errorf("level %q is not a SARIF level", r.Level)
	}
	if r.RuleID != "" && len(ruleIndex) > 0 {
		want, declared := ruleIndex[r.RuleID]
		if !declared {
			return fmt.Errorf("ruleId %q is not declared in tool.driver.rules", r.RuleID)
		}
		if r.RuleIndex != nil && *r.RuleIndex != want {
			return fmt.Errorf("ruleIndex %d does not match rule %q at index %d", *r.RuleIndex, r.RuleID, want)
		}
	}
	for j, loc := range r.Locations {
		if err := validateLocation(loc); err != nil {
			return fmt.Errorf("locations[%d]: %w", j, err)
		}
	}
	for j, s := range r.Suppressions {
		if !suppressionKinds[s.Kind] {
			return fmt.Errorf("suppressions[%d]: kind %q is not a SARIF suppression kind", j, s.Kind)
		}
	}
	return nil
}

func validateLocation(loc Location) error {
	pl := loc.PhysicalLocation
	if pl.ArtifactLocation.URI == "" {
		return fmt.Errorf("artifactLocation.uri is required")
	}
	if reg := pl.Region; reg != nil {
		if reg.StartLine < 1 {
			return fmt.Errorf("region.startLine must be >= 1")
		}
		if reg.StartColumn < 0 || reg.EndLine < 0 || reg.EndColumn < 0 {
			return fmt.Errorf("region bounds must be non-negative")
		}
	}
	return nil
}
