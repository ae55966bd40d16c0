//! Just enough JSON output for the result and context lines.

/// A JSON object whose fields keep their insertion order.
#[derive(Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits; `null` where JSON has no number.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Object {
    pub fn num(&mut self, key: &str, v: f64) {
        self.fields.push((key.into(), number(v)));
    }

    pub fn str(&mut self, key: &str, v: &str) {
        self.fields.push((key.into(), quote(v)));
    }

    pub fn bool(&mut self, key: &str, v: bool) {
        self.fields.push((key.into(), v.to_string()));
    }

    pub fn strs(&mut self, key: &str, v: &[String]) {
        let items: Vec<String> = v.iter().map(|s| quote(s)).collect();
        self.fields
            .push((key.into(), format!("[{}]", items.join(", "))));
    }

    pub fn obj(&mut self, key: &str, v: Object) {
        self.fields.push((key.into(), v.render()));
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Named metrics, each a value with its unit.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.into(), value, unit));
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|(_, v, _)| v.is_finite())
    }

    pub fn into_object(self) -> Object {
        let mut out = Object::default();
        for (name, value, unit) in self.values {
            let mut m = Object::default();
            m.num("value", value);
            m.str("unit", unit);
            out.obj(&name, m);
        }
        out
    }
}
