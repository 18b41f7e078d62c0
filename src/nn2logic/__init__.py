"""nn2logic: compile trained MLP classifiers into And-Inverter-Graph logic."""

__version__ = "0.1.0"
