//! One declaration per record: the `record!` and `events!` macros.
//!
//! A run event or snapshot record is declared **once**, as the Rust type
//! it is, each field optionally followed by its JSON key (`as "key"`,
//! default: the field name) and one flag:
//!
//! | flag | JSON |
//! |---|---|
//! | *(none)* | required member |
//! | `[measured]` | required, non-negative wall-clock measurement; a float may be `null` |
//! | `[estimate]` | required model estimate from the data's geometry; a float may be `null` |
//! | `[opt]` | `Option` field, member absent when `None` |
//! | `[flat]` | a nested record's members inlined into this object |
//!
//! From that the macros derive the type itself, the writer, the typed
//! reader (which *is* the schema validator: unknown extra members are
//! allowed, everything declared is checked all the way down) and the
//! rows of [`crate::schema::markdown_table`] — no comparison: `bench
//! compare` diffs the written documents ([`mod@crate::compare`]). The JSON
//! shape of a field follows from its Rust type through [`Field`].

use crate::json::{Json, JsonWriter};
use std::fmt;
use std::time::Duration;

/// A value that failed to read: where, and what was expected there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// Path from the record root, e.g. `phases[0].calls`.
    pub path: String,
    /// What the reader expected; `None` when the member is missing.
    pub expected: Option<&'static str>,
}

impl FieldError {
    fn expected(what: &'static str) -> Self {
        FieldError {
            path: String::new(),
            expected: Some(what),
        }
    }

    /// Prefixes the path with an object key.
    pub(crate) fn at(mut self, key: &str) -> Self {
        self.path = join(key, &self.path);
        self
    }

    /// Prefixes the path with a list index, plus the element's leading
    /// string member when it has one (`algos[2 "GILS"]`), so errors deep
    /// in a snapshot name the record they are in.
    fn at_index(mut self, index: usize, element: &Json) -> Self {
        let label = match element.as_object().and_then(|m| m.first()) {
            Some((_, Json::Str(label))) => format!("[{index} {label:?}]"),
            _ => format!("[{index}]"),
        };
        self.path = join(&label, &self.path);
        self
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.expected {
            Some(what) => write!(f, "{}: expected {what}", self.path),
            None => write!(f, "{}: missing required field", self.path),
        }
    }
}

impl std::error::Error for FieldError {}

/// Joins two path segments (`a` + `b` → `a.b`, `a` + `[0]` → `a[0]`).
pub(crate) fn join(head: &str, tail: &str) -> String {
    match (head.is_empty(), tail.is_empty() || tail.starts_with('[')) {
        (true, _) => tail.to_string(),
        (false, true) => format!("{head}{tail}"),
        (false, false) => format!("{head}.{tail}"),
    }
}

/// The JSON form of one field type: shape name, writer and validating
/// reader.
pub trait Field: Sized {
    /// Shape name for the schema table (`u64`, `[f64]`, `{str: u64}`, a
    /// record name).
    fn kind() -> String;
    /// Appends the value (no key, no separator).
    fn write(&self, w: &mut JsonWriter);
    /// Reads and validates the value.
    fn read(value: &Json) -> Result<Self, FieldError>;
    /// Reads a `[measured]` or `[estimate]` member, whose value may not
    /// be finite: [`Field::read`], except where the type writes such a
    /// value as `null` (a float), which reads back as NaN.
    fn read_non_finite(value: &Json) -> Result<Self, FieldError> {
        Self::read(value)
    }
    /// `false` for a negative measurement (checked on `[measured]` fields).
    fn non_negative(&self) -> bool {
        true
    }
}

/// A declared JSON object: a [`Field`] whose members are themselves
/// declared fields. Implemented by `record!`.
pub trait Record: Field {
    /// Appends the members (no braces), for `[flat]` embedding.
    fn write_fields(&self, w: &mut JsonWriter);
    /// Reads and validates the record out of a JSON object (for a
    /// `[flat]` member: out of the object it is inlined into).
    fn from_json(object: &Json) -> Result<Self, FieldError>;
    /// Appends one [`FieldDoc`] per member.
    fn schema(out: &mut Vec<FieldDoc>);

    /// The record as one compact JSON object.
    fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        self.write(&mut w);
        w.finish()
    }
}

/// One row fragment of the schema table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDoc {
    /// JSON member name.
    pub key: &'static str,
    /// [`Field::kind`] of the member.
    pub kind: String,
    /// The declaration's flag (`""`, `"measured"`, `"estimate"`, `"opt"`).
    pub flag: &'static str,
}

/// Renders documented members as `` `key` kind`` items: required ones
/// first, then the optional ones; `†` marks measured wall-clock members,
/// `‡` estimates.
pub(crate) fn render_fields(fields: &[FieldDoc]) -> String {
    let item = |f: &FieldDoc| {
        let dagger = match f.flag {
            "measured" => "†",
            "estimate" => "‡",
            _ => "",
        };
        let kind = match f.flag {
            "opt" => f.kind.trim_end_matches('?'),
            _ => f.kind.as_str(),
        };
        format!("`{}` {kind}{dagger}", f.key)
    };
    let optional = |f: &&FieldDoc| f.flag == "opt";
    let required: Vec<_> = fields.iter().filter(|f| !optional(f)).map(item).collect();
    let optionals: Vec<_> = fields.iter().filter(optional).map(item).collect();
    match optionals.is_empty() {
        true => required.join(", "),
        false => format!("{}; optional {}", required.join(", "), optionals.join(", ")),
    }
}

/// Looks a member up and reads it with `read`; `None` when absent.
fn member<T>(
    object: &Json,
    key: &str,
    read: fn(&Json) -> Result<T, FieldError>,
) -> Result<Option<T>, FieldError> {
    if object.as_object().is_none() {
        return Err(FieldError::expected("object"));
    }
    object
        .get(key)
        .map(|v| read(v).map_err(|e| e.at(key)))
        .transpose()
}

/// A required member's value, or the error that names it missing.
fn present<T>(value: Option<T>, key: &str) -> Result<T, FieldError> {
    value.ok_or(FieldError {
        path: key.to_string(),
        expected: None,
    })
}

/// Looks a member up and reads it; `None` when absent.
pub(crate) fn optional<T: Field>(object: &Json, key: &str) -> Result<Option<T>, FieldError> {
    member(object, key, T::read)
}

/// Looks a required member up and reads it.
pub(crate) fn required<T: Field>(object: &Json, key: &str) -> Result<T, FieldError> {
    present(optional(object, key)?, key)
}

/// [`required`] through [`Field::read_non_finite`].
pub(crate) fn estimate<T: Field>(object: &Json, key: &str) -> Result<T, FieldError> {
    present(member(object, key, T::read_non_finite)?, key)
}

/// [`estimate`], additionally rejecting negative measurements.
pub(crate) fn measured<T: Field>(object: &Json, key: &str) -> Result<T, FieldError> {
    let value: T = estimate(object, key)?;
    match value.non_negative() {
        true => Ok(value),
        false => Err(FieldError::expected("non-negative number").at(key)),
    }
}

macro_rules! scalar_field {
    ($ty:ty, $kind:literal, $expected:literal, $write:ident, $read:expr) => {
        impl Field for $ty {
            fn kind() -> String {
                $kind.to_string()
            }
            fn write(&self, w: &mut JsonWriter) {
                w.$write((*self).into());
            }
            fn read(value: &Json) -> Result<Self, FieldError> {
                ($read)(value).ok_or(FieldError::expected($expected))
            }
        }
    };
}

scalar_field!(u64, "u64", "non-negative integer", u64, Json::as_u64);
scalar_field!(bool, "bool", "boolean", bool, Json::as_bool);

impl Field for String {
    fn kind() -> String {
        "str".to_string()
    }
    fn write(&self, w: &mut JsonWriter) {
        w.str(self);
    }
    fn read(value: &Json) -> Result<Self, FieldError> {
        let text = value.as_str().ok_or(FieldError::expected("string"))?;
        Ok(text.to_string())
    }
}

/// Floats: the writer turns a non-finite value into `null`. A measured
/// member (a rate over no elapsed time) or an estimate (one that overflowed
/// on huge coordinates) reads `null` back as NaN; every other float — a
/// similarity, a gauge — refuses it, as it refuses a literal that
/// overflows `f64`.
impl Field for f64 {
    fn kind() -> String {
        "f64".to_string()
    }
    fn write(&self, w: &mut JsonWriter) {
        w.f64(*self);
    }
    fn read(value: &Json) -> Result<Self, FieldError> {
        value
            .as_f64()
            .filter(|v| v.is_finite())
            .ok_or(FieldError::expected("finite number"))
    }
    fn read_non_finite(value: &Json) -> Result<Self, FieldError> {
        match value {
            Json::Null => Ok(f64::NAN),
            _ => Self::read(value),
        }
    }
    fn non_negative(&self) -> bool {
        self.is_nan() || *self >= 0.0
    }
}

/// Durations travel as fractional seconds.
impl Field for Duration {
    fn kind() -> String {
        f64::kind()
    }
    fn write(&self, w: &mut JsonWriter) {
        w.f64(self.as_secs_f64());
    }
    fn read(value: &Json) -> Result<Self, FieldError> {
        Duration::try_from_secs_f64(f64::read(value)?)
            .map_err(|_| FieldError::expected("non-negative number of seconds"))
    }
}

/// `null` stands for `None` (e.g. a τ that was never reached).
impl<T: Field> Field for Option<T> {
    fn kind() -> String {
        format!("{}?", T::kind())
    }
    fn write(&self, w: &mut JsonWriter) {
        match self {
            Some(value) => value.write(w),
            None => w.null(),
        }
    }
    fn read(value: &Json) -> Result<Self, FieldError> {
        match value {
            Json::Null => Ok(None),
            value => T::read(value).map(Some),
        }
    }
    fn non_negative(&self) -> bool {
        self.as_ref().is_none_or(T::non_negative)
    }
}

/// Lists are JSON arrays.
impl<T: Field> Field for Vec<T> {
    fn kind() -> String {
        format!("[{}]", T::kind())
    }
    fn write(&self, w: &mut JsonWriter) {
        w.open('[');
        for item in self {
            w.elem();
            item.write(w);
        }
        w.close(']');
    }
    fn read(value: &Json) -> Result<Self, FieldError> {
        read_items(value, T::read)
    }
    fn read_non_finite(value: &Json) -> Result<Self, FieldError> {
        read_items(value, T::read_non_finite)
    }
    fn non_negative(&self) -> bool {
        self.iter().all(T::non_negative)
    }
}

/// A JSON array's items, each read with `read`.
fn read_items<T>(
    value: &Json,
    read: fn(&Json) -> Result<T, FieldError>,
) -> Result<Vec<T>, FieldError> {
    let items = value.as_array().ok_or(FieldError::expected("array"))?;
    let read = |(i, item)| read(item).map_err(|e: FieldError| e.at_index(i, item));
    items.iter().enumerate().map(read).collect()
}

/// Name-keyed tables are JSON objects, kept ascending by name.
impl<T: Field> Field for Vec<(String, T)> {
    fn kind() -> String {
        format!("{{str: {}}}", T::kind())
    }
    fn write(&self, w: &mut JsonWriter) {
        w.open('{');
        for (key, value) in self {
            w.key(key);
            value.write(w);
        }
        w.close('}');
    }
    fn read(value: &Json) -> Result<Self, FieldError> {
        let members = value.as_object().ok_or(FieldError::expected("object"))?;
        let read = |(key, value): &(String, Json)| match T::read(value) {
            Ok(value) => Ok((key.clone(), value)),
            Err(e) => Err(e.at(key)),
        };
        let mut table = members.iter().map(read).collect::<Result<Vec<_>, _>>()?;
        table.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(table)
    }
    fn non_negative(&self) -> bool {
        self.iter().all(|(_, value)| value.non_negative())
    }
}

/// A histogram bucket: `[log2_bucket, count]`.
impl Field for (u32, u64) {
    fn kind() -> String {
        "[u32, u64]".to_string()
    }
    fn write(&self, w: &mut JsonWriter) {
        w.open('[');
        for part in [u64::from(self.0), self.1] {
            w.elem();
            w.u64(part);
        }
        w.close(']');
    }
    fn read(value: &Json) -> Result<Self, FieldError> {
        match value.as_array() {
            Some([bucket, count]) => match u32::try_from(u64::read(bucket)?) {
                Ok(bucket) => Ok((bucket, u64::read(count)?)),
                Err(_) => Err(FieldError::expected("32-bit bucket index")),
            },
            _ => Err(FieldError::expected("[bucket, count] pair")),
        }
    }
}

/// The JSON key of a declared field: its `as "key"` or its own name.
macro_rules! field_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The per-flag code of one declared field (see the module docs).
macro_rules! field_op {
    (write [opt] $w:ident, $key:expr, $value:expr) => {
        if let Some(value) = $value {
            $w.key($key);
            $crate::record::Field::write(value, $w);
        }
    };
    (write [flat] $w:ident, $key:expr, $value:expr) => {
        $crate::record::Record::write_fields($value, $w);
    };
    (write [$($flag:ident)?] $w:ident, $key:expr, $value:expr) => {
        $w.key($key);
        $crate::record::Field::write($value, $w);
    };
    (read [] $object:ident, $key:expr) => {
        $crate::record::required($object, $key)?
    };
    (read [measured] $object:ident, $key:expr) => {
        $crate::record::measured($object, $key)?
    };
    (read [estimate] $object:ident, $key:expr) => {
        $crate::record::estimate($object, $key)?
    };
    (read [opt] $object:ident, $key:expr) => {
        $crate::record::optional($object, $key)?
    };
    (read [flat] $object:ident, $key:expr) => {
        $crate::record::Record::from_json($object)?
    };
    (schema [flat] $ty:ty, $key:expr, $out:ident) => {
        <$ty as $crate::record::Record>::schema($out);
    };
    (schema [$($flag:ident)?] $ty:ty, $key:expr, $out:ident) => {
        $out.push($crate::record::FieldDoc {
            key: $key,
            kind: <$ty as $crate::record::Field>::kind(),
            flag: concat!($(stringify!($flag))?),
        });
    };
}

/// Declares a record struct and derives its [`Field`] / [`Record`] impls.
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(as $key:literal)? $([$flag:ident])?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty ),*
        }

        impl $crate::record::Record for $name {
            fn write_fields(&self, w: &mut $crate::json::JsonWriter) {
                $( $crate::record::field_op!(write [$($flag)?] w, $crate::record::field_key!($field $($key)?), &self.$field); )*
            }
            fn from_json(object: &$crate::json::Json) -> Result<Self, $crate::record::FieldError> {
                Ok($name {
                    $( $field: $crate::record::field_op!(read [$($flag)?] object, $crate::record::field_key!($field $($key)?)) ),*
                })
            }
            fn schema(out: &mut Vec<$crate::record::FieldDoc>) {
                $( $crate::record::field_op!(schema [$($flag)?] $ty, $crate::record::field_key!($field $($key)?), out); )*
            }
        }

        impl $crate::record::Field for $name {
            fn kind() -> String {
                stringify!($name).to_string()
            }
            fn write(&self, w: &mut $crate::json::JsonWriter) {
                w.open('{');
                $crate::record::Record::write_fields(self, w);
                w.close('}');
            }
            fn read(value: &$crate::json::Json) -> Result<Self, $crate::record::FieldError> {
                $crate::record::Record::from_json(value)
            }
        }
    };
}

/// Declares the run-event enum: one variant per kind, discriminated by
/// the `"event"` member. Derives `kind`, `to_json`, `from_json` and
/// `schema`.
macro_rules! events {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $ty:ty $(as $key:literal)? $([$flag:ident])?
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty ),* } ),*
        }

        impl $name {
            /// The value of the discriminating `"event"` field.
            pub fn kind(&self) -> &'static str {
                match self { $( $name::$variant { .. } => $kind ),* }
            }

            /// Serialises the event as one JSON object (no trailing newline).
            pub fn to_json(&self) -> String {
                let mut out = $crate::json::JsonWriter::compact();
                let w = &mut out;
                w.open('{');
                w.key("event");
                w.str(self.kind());
                match self {
                    $( $name::$variant { $($field),* } => {
                        $( $crate::record::field_op!(write [$($flag)?] w, $crate::record::field_key!($field $($key)?), $field); )*
                    } )*
                }
                w.close('}');
                out.finish()
            }

            /// Reads and validates one event object — the typed reader
            /// *is* the schema check: the kind must be known and every
            /// declared member well-formed, down into nested records;
            /// unknown extra members are allowed.
            pub fn from_json(
                object: &$crate::json::Json,
            ) -> Result<Self, $crate::schema::SchemaError> {
                use $crate::schema::SchemaError;
                if object.as_object().is_none() {
                    return Err(SchemaError::NotAnObject);
                }
                let kind = object.get("event").and_then($crate::json::Json::as_str);
                match kind.ok_or(SchemaError::MissingEventField)? {
                    $( $kind => (|| -> Result<Self, $crate::record::FieldError> { Ok($name::$variant {
                        $( $field: $crate::record::field_op!(read [$($flag)?] object, $crate::record::field_key!($field $($key)?)) ),*
                    }) })()
                    .map_err(|e| SchemaError::field($kind, e)), )*
                    other => Err(SchemaError::UnknownEvent(other.to_string())),
                }
            }

            /// Every kind with its documented members, in declaration order.
            pub fn schema() -> Vec<(&'static str, Vec<$crate::record::FieldDoc>)> {
                vec![ $( ($kind, {
                    let mut fields = Vec::new();
                    let out = &mut fields;
                    $( $crate::record::field_op!(schema [$($flag)?] $ty, $crate::record::field_key!($field $($key)?), out); )*
                    fields
                }) ),* ]
            }
        }
    };
}

pub(crate) use {events, field_key, field_op, record};
