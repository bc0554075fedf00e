//! A small PID controller used by the navigation cascade.

/// A proportional-integral-derivative controller with output clamping and
/// integral anti-windup.
#[derive(Debug, Clone, PartialEq)]
pub struct Pid {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain (applied to the error derivative).
    pub kd: f64,
    /// Symmetric output limit.
    pub output_limit: f64,
    /// Symmetric integral-term limit (anti-windup).
    pub integral_limit: f64,
    integral: f64,
    last_error: Option<f64>,
}

impl Pid {
    /// Creates a PID controller with the given gains and output limit.
    pub fn new(kp: f64, ki: f64, kd: f64, output_limit: f64) -> Self {
        Pid {
            kp,
            ki,
            kd,
            output_limit: output_limit.abs(),
            integral_limit: output_limit.abs() * 0.5,
            integral: 0.0,
            last_error: None,
        }
    }

    /// Creates a proportional-only controller.
    pub fn proportional(kp: f64, output_limit: f64) -> Self {
        Pid::new(kp, 0.0, 0.0, output_limit)
    }

    /// Advances the controller by `dt` seconds with the given error and
    /// returns the clamped output.
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        debug_assert!(dt > 0.0);
        self.integral =
            (self.integral + error * dt).clamp(-self.integral_limit, self.integral_limit);
        let derivative = match self.last_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.last_error = Some(error);
        let out = self.kp * error + self.ki * self.integral + self.kd * derivative;
        out.clamp(-self.output_limit, self.output_limit)
    }

    /// Advances the controller using an externally measured rate for the
    /// derivative term (classic "derivative on measurement" form), which
    /// avoids derivative kick on setpoint changes.
    pub fn update_with_rate(&mut self, error: f64, rate: f64, dt: f64) -> f64 {
        debug_assert!(dt > 0.0);
        self.integral =
            (self.integral + error * dt).clamp(-self.integral_limit, self.integral_limit);
        self.last_error = Some(error);
        let out = self.kp * error + self.ki * self.integral - self.kd * rate;
        out.clamp(-self.output_limit, self.output_limit)
    }

    /// Resets the integral and derivative history (e.g. on mode change).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }

    /// The accumulated integral term (for tests and telemetry).
    pub fn integral(&self) -> f64 {
        self.integral
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_response() {
        let mut pid = Pid::proportional(2.0, 10.0);
        assert_eq!(pid.update(1.0, 0.01), 2.0);
        assert_eq!(pid.update(-3.0, 0.01), -6.0);
    }

    #[test]
    fn output_is_clamped() {
        let mut pid = Pid::proportional(100.0, 1.0);
        assert_eq!(pid.update(5.0, 0.01), 1.0);
        assert_eq!(pid.update(-5.0, 0.01), -1.0);
    }

    #[test]
    fn integral_accumulates_and_saturates() {
        let mut pid = Pid::new(0.0, 1.0, 0.0, 2.0);
        for _ in 0..100 {
            pid.update(1.0, 0.1);
        }
        // Integral limit is half the output limit.
        assert!((pid.integral() - 1.0).abs() < 1e-9);
        assert!((pid.update(1.0, 0.1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn derivative_damps_rising_error() {
        let mut pid = Pid::new(1.0, 0.0, 1.0, 100.0);
        pid.update(0.0, 0.1);
        // Error rose by 1 over 0.1 s -> derivative 10.
        let out = pid.update(1.0, 0.1);
        assert!((out - (1.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn update_with_rate_subtracts_rate_term() {
        let mut pid = Pid::new(2.0, 0.0, 0.5, 100.0);
        let out = pid.update_with_rate(1.0, 4.0, 0.01);
        assert!((out - (2.0 - 2.0)).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = Pid::new(1.0, 1.0, 1.0, 10.0);
        pid.update(1.0, 0.1);
        pid.update(2.0, 0.1);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
        // After reset, derivative term has no history.
        let out = pid.update(1.0, 0.1);
        assert!((out - (1.0 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_converges_on_first_order_plant() {
        // Plant: x' = u. Controller drives x to 5.
        let mut pid = Pid::new(2.0, 0.2, 0.0, 4.0);
        let mut x = 0.0;
        let dt = 0.01;
        for _ in 0..5000 {
            let u = pid.update(5.0 - x, dt);
            x += u * dt;
        }
        assert!((x - 5.0).abs() < 0.05, "x = {x}");
    }
}
