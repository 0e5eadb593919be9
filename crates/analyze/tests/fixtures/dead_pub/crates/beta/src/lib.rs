// Fixture: a re-export alone keeps nothing alive.
pub use alpha::reexported_only;
