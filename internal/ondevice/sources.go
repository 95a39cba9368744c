// Package ondevice implements the paper's §5: private on-device personal
// knowledge. It provides device data sources (contacts, messages,
// calendar), an incremental pausable personal-KG construction pipeline
// with bounded memory (built on the disk-oriented storage package),
// per-source cross-device sync with deterministic merge, and the three
// global knowledge enrichment paths (static asset, dynamic piggyback,
// private retrieval with differential-privacy and PIR cost simulation).
package ondevice

import (
	"fmt"
	"math/rand"
	"strings"

	"saga/internal/textutil"
)

// SourceKind identifies an on-device data source.
type SourceKind string

const (
	// SourceContacts is the address book.
	SourceContacts SourceKind = "contacts"
	// SourceMessages is the messaging app (senders).
	SourceMessages SourceKind = "messages"
	// SourceCalendar is the calendar (event attendees).
	SourceCalendar SourceKind = "calendar"
)

// AllSources lists every source kind in canonical order.
var AllSources = []SourceKind{SourceContacts, SourceMessages, SourceCalendar}

// Record is one raw person observation from a device source — a contact
// card, a message sender, or a calendar attendee (Fig 7). Different
// sources carry different subsets of attributes in different formats.
type Record struct {
	// Source is the producing data source.
	Source SourceKind
	// LocalID is unique within (Source); e.g. "contact-12".
	LocalID string
	// Name as the source renders it ("Tim Smith", "Smith, Tim").
	Name string
	// Phone in any format; empty when the source lacks it.
	Phone string
	// Email in any casing; empty when the source lacks it.
	Email string
	// Note carries free-text context (message snippets, event titles)
	// used by on-device contextual ranking.
	Note string
}

// Key returns the record's globally unique identity.
func (r Record) Key() string {
	return string(r.Source) + "/" + r.LocalID
}

// NormPhone canonicalizes the phone number to its last 10 digits so that
// "+1 (123) 555 1234" and "123-555-1234" match (Fig 7's phone join).
func (r Record) NormPhone() string {
	d := textutil.DigitsOnly(r.Phone)
	if len(d) > 10 {
		d = d[len(d)-10:]
	}
	return d
}

// NormEmail canonicalizes the email for matching.
func (r Record) NormEmail() string {
	return strings.ToLower(strings.TrimSpace(r.Email))
}

// DeviceDataConfig sizes GenerateDeviceData.
type DeviceDataConfig struct {
	// NumPersons is the number of underlying real people; default 20.
	NumPersons int
	// RecordsPerPerson is the approximate number of records each person
	// generates across sources; default 4.
	RecordsPerPerson int
	// Seed drives generation.
	Seed int64
}

// GroundTruth maps each record key to its underlying person index, for
// evaluating entity matching.
type GroundTruth map[string]int

// GenerateDeviceData synthesizes overlapping person records across the
// three sources with realistic format variation: contacts carry
// name+phone+email; messages carry name+phone; calendar carries
// name+email — exactly the Fig 7 integration scenario. Some records use
// reversed name order or a bare first name.
func GenerateDeviceData(cfg DeviceDataConfig) ([]Record, GroundTruth) {
	if cfg.NumPersons <= 0 {
		cfg.NumPersons = 20
	}
	if cfg.RecordsPerPerson <= 0 {
		cfg.RecordsPerPerson = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	firsts := []string{"Tim", "Ana", "Raj", "Mei", "Leo", "Zoe", "Sam", "Ivy", "Max", "Nia"}
	lasts := []string{"Smith", "Lopez", "Patel", "Wong", "Kim", "Brown", "Silva", "Khan", "Berg", "Cruz"}

	var records []Record
	truth := make(GroundTruth)
	recNum := 0
	for p := 0; p < cfg.NumPersons; p++ {
		first := firsts[p%len(firsts)]
		last := lasts[(p/len(firsts))%len(lasts)]
		full := first + " " + last
		phone := fmt.Sprintf("+1 (555) %03d-%04d", p%1000, 1000+p)
		email := strings.ToLower(first) + "." + strings.ToLower(last) + fmt.Sprintf("%d@example.com", p)

		add := func(rec Record) {
			rec.LocalID = fmt.Sprintf("%s-%d", rec.Source, recNum)
			recNum++
			records = append(records, rec)
			truth[rec.Key()] = p
		}
		// Contact card: full attributes.
		add(Record{Source: SourceContacts, Name: full, Phone: phone, Email: email})
		for i := 1; i < cfg.RecordsPerPerson; i++ {
			switch i % 3 {
			case 1:
				// Message sender: name variant + phone only.
				name := full
				if rng.Intn(2) == 0 {
					name = last + ", " + first
				}
				add(Record{
					Source: SourceMessages, Name: name,
					Phone: fmt.Sprintf("555%03d%04d", p%1000, 1000+p), // bare digits
					Note:  "message thread " + fmt.Sprint(rng.Intn(100)),
				})
			case 2:
				// Calendar attendee: name + email only.
				add(Record{
					Source: SourceCalendar, Name: full,
					Email: strings.ToUpper(email), // casing variation
					Note:  "meeting " + fmt.Sprint(rng.Intn(100)),
				})
			default:
				// Second contact entry (e.g. work card): email only.
				add(Record{Source: SourceContacts, Name: full, Email: email, Note: "work"})
			}
		}
	}
	rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
	return records, truth
}
