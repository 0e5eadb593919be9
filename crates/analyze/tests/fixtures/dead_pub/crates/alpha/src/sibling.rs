// Fixture: a sibling that calls one item and only mentions two others.
use crate::used_by_sibling;

fn call() -> &'static str {
    used_by_sibling();
    // named_in_comment_only() is not a call.
    "named_in_string_only"
}
