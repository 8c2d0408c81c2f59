package xc

import (
	"fmt"
	"sort"
	"strings"

	"xcontainers/internal/runtimes"
)

// Kind selects one of the nine evaluated container architectures. It is
// the paper's Fig. 1 taxonomy, re-exported so that callers never import
// the internal composition layer. Kind.String() renders the paper's
// legend name ("X-Container", "Clear-Container", ...); ParseKind accepts
// both that form and the short CLI spellings listed by KindName.
type Kind = runtimes.Kind

const (
	Docker         = runtimes.Docker
	XenContainer   = runtimes.XenContainer
	XContainer     = runtimes.XContainer
	GVisor         = runtimes.GVisor
	ClearContainer = runtimes.ClearContainer
	Unikernel      = runtimes.Unikernel
	Graphene       = runtimes.Graphene
	XenPVVM        = runtimes.XenPVVM
	XenHVMVM       = runtimes.XenHVMVM
)

// kindTable is the one registry of kinds, canonical CLI names, and
// accepted aliases. Everything below (ParseKind, Kinds, KindName,
// KindUsage) derives from it; adding an architecture means adding one row.
var kindTable = []struct {
	kind    Kind
	cli     string
	aliases []string
}{
	{Docker, "docker", nil},
	{XenContainer, "xen-container", []string{"xencontainer", "lightvm"}},
	{XContainer, "xcontainer", []string{"x-container", "xc"}},
	{GVisor, "gvisor", nil},
	{ClearContainer, "clear-container", []string{"clearcontainer", "clear"}},
	{Unikernel, "unikernel", []string{"rumprun"}},
	{Graphene, "graphene", nil},
	{XenPVVM, "xen-pv", []string{"xenpv", "xen-pv-vm"}},
	{XenHVMVM, "xen-hvm", []string{"xenhvm", "xen-hvm-vm"}},
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind)
	for _, e := range kindTable {
		m[e.cli] = e.kind
		m[strings.ToLower(e.kind.String())] = e.kind
		for _, a := range e.aliases {
			m[a] = e.kind
		}
	}
	return m
}()

// ParseKind resolves a runtime name (canonical CLI spelling, paper
// legend name, or a documented alias) to its Kind, case-insensitively.
func ParseKind(s string) (Kind, error) {
	if k, ok := kindByName[strings.ToLower(strings.TrimSpace(s))]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("xc: unknown runtime %q (known: %s)", s, KindUsage())
}

// Kinds returns all evaluated architectures in the paper's order.
func Kinds() []Kind {
	out := make([]Kind, len(kindTable))
	for i, e := range kindTable {
		out[i] = e.kind
	}
	return out
}

// KindName returns the canonical CLI spelling for a kind — the inverse
// of ParseKind, stable for flags and JSON.
func KindName(k Kind) string {
	for _, e := range kindTable {
		if e.kind == k {
			return e.cli
		}
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// KindUsage renders the canonical names "docker|xen-container|..." for
// flag help strings.
func KindUsage() string {
	names := make([]string, len(kindTable))
	for i, e := range kindTable {
		names[i] = e.cli
	}
	return strings.Join(names, "|")
}

// Cloud selects the provider profile of §5.1 (Clear Containers need
// nested hardware virtualization, which EC2 lacks).
type Cloud = runtimes.Cloud

const (
	LocalCluster = runtimes.LocalCluster
	AmazonEC2    = runtimes.AmazonEC2
	GoogleGCE    = runtimes.GoogleGCE
)

var cloudByName = map[string]Cloud{
	"local": LocalCluster, "local-cluster": LocalCluster, "localcluster": LocalCluster,
	"ec2": AmazonEC2, "amazon": AmazonEC2, "aws": AmazonEC2,
	"gce": GoogleGCE, "google": GoogleGCE, "gcp": GoogleGCE,
}

// ParseCloud resolves a provider name ("local", "ec2"/"amazon"/"aws",
// "gce"/"google"/"gcp") case-insensitively.
func ParseCloud(s string) (Cloud, error) {
	if c, ok := cloudByName[strings.ToLower(strings.TrimSpace(s))]; ok {
		return c, nil
	}
	known := make([]string, 0, len(cloudByName))
	for n := range cloudByName {
		known = append(known, n)
	}
	sort.Strings(known)
	return 0, fmt.Errorf("xc: unknown cloud %q (known: %s)", s, strings.Join(known, "|"))
}

// Clouds returns the three provider profiles.
func Clouds() []Cloud { return []Cloud{LocalCluster, AmazonEC2, GoogleGCE} }

// CloudName returns the canonical CLI spelling for a cloud.
func CloudName(c Cloud) string {
	switch c {
	case AmazonEC2:
		return "ec2"
	case GoogleGCE:
		return "gce"
	}
	return "local"
}
