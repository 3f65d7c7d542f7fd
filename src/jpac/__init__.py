"""Joint power and admission control via non-convex lq approximation deflation."""

from . import admission, kernel, network, oracle, scenario
