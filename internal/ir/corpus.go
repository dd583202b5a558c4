package ir

import "strings"

// Document is one analyzed retrievable unit: an ID plus its term counts and
// length (total term occurrences). The corpus indexes a document's terms
// but does not keep the Document itself.
type Document struct {
	ID    string
	Terms map[string]int
	Len   int
}

// NewDocument analyzes text into a document.
func NewDocument(id, text string) *Document {
	terms := TermCounts(text)
	n := 0
	for _, c := range terms {
		n += c
	}
	return &Document{ID: id, Terms: terms, Len: n}
}

// Posting is one entry of a term's inverted postings list: the slot of a
// document containing the term (an index into IDs()) plus the term's
// frequency in that document.
type Posting struct {
	Slot uint32
	TF   uint32
}

// indexedDoc is what the corpus keeps of a document: its ID, its length
// and the IDs of its terms, so replacing it touches only its own postings.
type indexedDoc struct {
	id    string
	len   int
	terms []uint32
}

// Corpus is an indexed document collection with the global statistics BM25
// and Offer Weight need — document frequencies and average length — plus
// an inverted index so scoring visits only the documents that contain a
// query's terms. Terms are interned once into dense IDs; postings are
// indexed by term ID and a term's document frequency is the length of its
// postings list. The dictionary only grows: a term whose documents are all
// replaced keeps its ID with an empty postings list.
type Corpus struct {
	termID   map[string]uint32
	terms    []string    // term ID -> term
	postings [][]Posting // term ID -> postings
	docs     []indexedDoc
	slot     map[string]uint32 // document ID -> index into docs
	sumLen   int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{termID: make(map[string]uint32), slot: make(map[string]uint32)}
}

// Intern returns the term's ID, adding it to the dictionary on first
// sight. The dictionary holds its own copy of the string, so a term sliced
// from a larger text does not pin that text.
func (c *Corpus) Intern(term string) uint32 {
	if id, ok := c.termID[term]; ok {
		return id
	}
	id := uint32(len(c.terms))
	term = strings.Clone(term)
	c.termID[term] = id
	c.terms = append(c.terms, term)
	c.postings = append(c.postings, nil)
	return id
}

// Add indexes a document given its term counts. Adding a duplicate ID
// replaces the old version; the document keeps its slot, so postings of
// other documents stay valid.
func (c *Corpus) Add(id string, terms map[string]int) {
	slot, ok := c.slot[id]
	if ok {
		c.remove(slot)
	} else {
		slot = uint32(len(c.docs))
		c.slot[id] = slot
		c.docs = append(c.docs, indexedDoc{id: id})
	}
	d := &c.docs[slot]
	d.len, d.terms = 0, make([]uint32, 0, len(terms))
	for t, tf := range terms {
		tid := c.Intern(t)
		c.postings[tid] = append(c.postings[tid], Posting{Slot: slot, TF: uint32(tf)})
		d.terms = append(d.terms, tid)
		d.len += tf
	}
	c.sumLen += d.len
}

// AddText analyzes and indexes text under the given ID and returns the
// analyzed document.
func (c *Corpus) AddText(id, text string) *Document {
	d := NewDocument(id, text)
	c.Add(id, d.Terms)
	return d
}

// remove drops the postings of the document in slot.
func (c *Corpus) remove(slot uint32) {
	for _, tid := range c.docs[slot].terms {
		ps := c.postings[tid]
		for i := range ps {
			if ps[i].Slot == slot {
				ps[i] = ps[len(ps)-1]
				c.postings[tid] = ps[:len(ps)-1]
				break
			}
		}
	}
	c.sumLen -= c.docs[slot].len
}

// N returns the number of documents.
func (c *Corpus) N() int { return len(c.docs) }

// DF returns the document frequency of a term.
func (c *Corpus) DF(term string) int { return len(c.Postings(term)) }

// AvgLen returns the mean document length (0 for an empty corpus).
func (c *Corpus) AvgLen() float64 {
	if len(c.docs) == 0 {
		return 0
	}
	return float64(c.sumLen) / float64(len(c.docs))
}

// Postings returns the term's inverted postings list (shared slice; do not
// mutate). Slots index into IDs().
func (c *Corpus) Postings(term string) []Posting {
	id, ok := c.termID[term]
	if !ok {
		return nil
	}
	return c.postings[id]
}

// IDs returns the document IDs in insertion (slot) order.
func (c *Corpus) IDs() []string {
	out := make([]string, len(c.docs))
	for i, d := range c.docs {
		out[i] = d.id
	}
	return out
}
