// Package doc models the unstructured-text modality of the multi-modal data
// lake: documents (e.g. Wikipedia-style entity pages), indexed whole.
package doc

// Document is a text file in the lake.
type Document struct {
	// ID uniquely identifies the document within its data lake.
	ID string
	// Title is the document title (for entity pages, the entity name).
	Title string
	// Text is the full body text.
	Text string
	// EntityID links the document to a knowledge-graph entity when it is an
	// entity page; empty otherwise.
	EntityID string
	// SourceID identifies the dataset/source for trust scoring.
	SourceID string
}

// SerializeForIndex flattens title and body for content-based indexing.
func (d *Document) SerializeForIndex() string {
	if d.Title == "" {
		return d.Text
	}
	return d.Title + " " + d.Text
}
