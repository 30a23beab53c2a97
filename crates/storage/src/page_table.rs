//! Page tables: the scheduling metadata of paper §2.3.
//!
//! *"We assume that the instruction in each memory cell corresponds to a node
//! in the query tree and that the data is represented by page tables,
//! pointing to pages either in a cache or on mass storage."*
//!
//! A [`PageTable`] is a growing list of page ids for one operand of one
//! instruction, plus a `complete` flag set when the producing instruction
//! has terminated. The three granularities of §3 read it differently:
//!
//! * relation-level: operand ready ⇔ `complete`
//! * page-level / tuple-level: operand ready ⇔ at least one page present
//!   (or `complete` with zero pages — an empty operand still enables, the
//!   instruction just produces nothing)

use df_relalg::Schema;

use crate::store::PageId;

/// The page table for one operand.
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Schema of the tuples in these pages.
    schema: Schema,
    pages: Vec<PageId>,
    /// How many pages have been handed out for consumption so far.
    consumed: usize,
    complete: bool,
}

impl PageTable {
    /// An empty, incomplete table (an intermediate operand not yet produced).
    pub fn new(schema: Schema) -> PageTable {
        PageTable {
            schema,
            pages: Vec::new(),
            consumed: 0,
            complete: false,
        }
    }

    /// A complete table over existing pages (a source relation).
    pub fn complete_with(schema: Schema, pages: Vec<PageId>) -> PageTable {
        PageTable {
            schema,
            pages,
            consumed: 0,
            complete: true,
        }
    }

    /// The operand's tuple schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All page ids registered so far.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of pages registered so far.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no pages registered.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether the producer has terminated.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Register a newly produced page.
    ///
    /// # Panics
    /// Panics if the table was already marked complete — a producer must not
    /// emit pages after announcing termination.
    pub fn push(&mut self, id: PageId) {
        assert!(
            !self.complete,
            "PageTable: page {id} pushed after completion"
        );
        self.pages.push(id);
    }

    /// Announce that no further pages will arrive.
    pub fn mark_complete(&mut self) {
        self.complete = true;
    }

    /// Number of pages available but not yet handed out.
    pub fn available(&self) -> usize {
        self.pages.len() - self.consumed
    }

    /// Hand out the next unconsumed page, advancing the cursor.
    pub fn take_next(&mut self) -> Option<PageId> {
        if self.consumed < self.pages.len() {
            let id = self.pages[self.consumed];
            self.consumed += 1;
            Some(id)
        } else {
            None
        }
    }

    /// Whether every registered page has been consumed *and* the producer
    /// has terminated — i.e. this operand is exhausted.
    pub fn exhausted(&self) -> bool {
        self.complete && self.consumed == self.pages.len()
    }

    /// How many pages have been consumed.
    pub fn consumed(&self) -> usize {
        self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_relalg::DataType;

    fn schema() -> Schema {
        Schema::build().attr("k", DataType::Int).finish().unwrap()
    }

    fn pid(n: u64) -> PageId {
        PageId(n)
    }

    #[test]
    fn empty_complete_operand_enables() {
        let mut t = PageTable::new(schema());
        assert!(!t.exhausted(), "an empty operand may still grow");
        t.mark_complete();
        assert_eq!(t.available(), 0);
        assert!(t.exhausted());
    }

    #[test]
    fn consumption_cursor() {
        let mut t = PageTable::complete_with(schema(), vec![pid(1), pid(2)]);
        assert_eq!(t.available(), 2);
        assert_eq!(t.take_next(), Some(pid(1)));
        assert_eq!(t.take_next(), Some(pid(2)));
        assert_eq!(t.take_next(), None);
        assert!(t.exhausted());
        assert_eq!(t.consumed(), 2);
    }

    #[test]
    fn incomplete_table_is_not_exhausted_when_drained() {
        let mut t = PageTable::new(schema());
        t.push(pid(1));
        assert_eq!(t.take_next(), Some(pid(1)));
        assert!(!t.exhausted(), "producer may still emit more pages");
        t.mark_complete();
        assert!(t.exhausted());
    }

    #[test]
    #[should_panic(expected = "after completion")]
    fn push_after_complete_panics() {
        let mut t = PageTable::new(schema());
        t.mark_complete();
        t.push(pid(1));
    }
}
