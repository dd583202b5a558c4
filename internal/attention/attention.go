// Package attention holds Reef's attention data (paper §2.2): the Click,
// one outgoing HTTP request of the user's, and the attention parser, which
// scans raw attention data for tokens that form valid name-value pairs of
// a given publish-subscribe schema (§2.1). Clicks reach a node through
// IngestClicks, over the SDK or the stream; the paper's browser-side
// recorder is that client.
package attention

import (
	"sort"
	"strings"
	"time"

	"reef/internal/eventalg"
	"reef/internal/ir"
)

// Click is the unit of attention data (paper §3.1): one outgoing HTTP
// request with the attributes the prototype logs — URI, timestamp and a
// user cookie — plus a flag marking closed-loop clicks on delivered events.
type Click struct {
	// User is the user cookie tying the click to a user.
	User string `json:"user"`
	// URL is the requested URI.
	URL string `json:"url"`
	// At is the request timestamp.
	At time.Time `json:"at"`
	// Referrer is the page the click came from, when known.
	Referrer string `json:"referrer,omitempty"`
	// FromEvent marks clicks on links inside delivered events; the
	// recommendation service reads these as positive feedback (§2.2).
	FromEvent bool `json:"from_event,omitempty"`
}

// Host returns the server component of the click's URL, or "" when the URL
// is malformed.
func (c Click) Host() string {
	rest, ok := strings.CutPrefix(c.URL, "http://")
	if !ok {
		rest, ok = strings.CutPrefix(c.URL, "https://")
		if !ok {
			return ""
		}
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// Pair is a candidate name-value pair extracted from attention data,
// validated against the target pub-sub schema.
type Pair struct {
	Attr  string
	Value eventalg.Value
}

// Parser scans attention tokens for valid name-value pairs of one
// publish-subscribe system, per that system's Schema. For each schema
// attribute the parser tries the token as a value: domain and validator
// rules decide acceptance. The stock-quote example from the paper: with a
// "symbol" attribute whose domain is the known ticker list, the token
// stream of a finance page yields symbol=AAPL pairs.
type Parser struct {
	schema *eventalg.Schema
}

// NewParser builds a parser for the schema.
func NewParser(schema *eventalg.Schema) *Parser {
	return &Parser{schema: schema}
}

// ParseTokens tests every token against every schema attribute and returns
// the accepted pairs, deduplicated, in deterministic order.
func (p *Parser) ParseTokens(tokens []string) []Pair {
	type key struct {
		attr, val string
	}
	seen := make(map[key]struct{})
	var out []Pair
	attrs := p.schema.AttrNames()
	for _, tok := range tokens {
		for _, attr := range attrs {
			spec, _ := p.schema.Attr(attr)
			if spec.Type != eventalg.KindString {
				continue
			}
			v := eventalg.String(tok)
			if !p.schema.ValidatePair(attr, v) {
				continue
			}
			k := key{attr, tok}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, Pair{Attr: attr, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attr != out[j].Attr {
			return out[i].Attr < out[j].Attr
		}
		return out[i].Value.Str() < out[j].Value.Str()
	})
	return out
}

// ParseText tokenizes free text (IR analysis chain, §3.3) and parses the
// resulting terms plus the raw tokens. Raw tokens matter for closed
// domains like tickers, stemmed terms for keyword attributes.
func (p *Parser) ParseText(text string) []Pair {
	raw := ir.Tokenize(text)
	terms := ir.Terms(text)
	all := make([]string, 0, len(raw)+len(terms))
	all = append(all, raw...)
	all = append(all, terms...)
	return p.ParseTokens(all)
}

// URLTokens splits a URL into the tokens the parser should see: the full
// URL, the host, and each path segment.
func URLTokens(url string) []string {
	out := []string{url}
	rest, ok := strings.CutPrefix(url, "http://")
	if !ok {
		rest, ok = strings.CutPrefix(url, "https://")
		if !ok {
			return out
		}
	}
	if rest == "" {
		return out
	}
	parts := strings.Split(rest, "/")
	out = append(out, parts[0])
	for _, seg := range parts[1:] {
		if seg != "" {
			out = append(out, seg)
		}
	}
	return out
}
